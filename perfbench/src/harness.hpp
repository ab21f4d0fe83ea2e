// Measurement plumbing shared by the perfbench workloads: the monotonic
// clock, quantiles, the result record every run prints, the in-memory
// span recorder of the traced run, readers for the series the engines
// already publish, and the host probes (peak RSS, copy bandwidth).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/load_vector.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Seconds on std::chrono::steady_clock.
double now_s();

/// q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double p50(const std::vector<double>& v) { return quantile(v, 0.5); }
double total(const std::vector<double>& v);
/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : total(v) / static_cast<double>(v.size());
}

/// Settings of one run, from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;           ///< small sizes, for the benchmark's own tests
  std::string work_dir = ".";  ///< checkpoint files and the span dump
};

/// Everything one run reports: counted operations, named metrics with
/// units, state hashes for the reference check, and failure notes.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Value of a metric set earlier, or `fallback`.
  double get(const std::string& name, double fallback = 0.0) const;
  bool has(const std::string& name) const;
  void hash(const std::string& name, std::uint64_t h);

  /// Runs `op` as one counted operation. An exception counts it as
  /// failed and is noted; returns whether it succeeded.
  bool attempt(const char* what, const std::function<void()>& op);
  /// One counted check.
  void check(const std::string& what, bool ok);

  /// One JSON object on one line.
  void write_json(std::ostream& out, const Options& o) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> hashes_;
  std::vector<std::string> errors_;
};

/// Span recorder of the traced run. Spans nest by call order on the
/// bench thread; spans measured elsewhere (sweep workers) are added after
/// the fact with an explicit parent. Nothing is recorded while disabled.
class Spans {
 public:
  void enable(bool on) noexcept { on_ = on; }

  /// Opens a span under the innermost open one; returns its id or -1.
  int open(const char* name, std::int64_t arg = 0);
  void close(int id);
  void add(const char* name, int parent, double start, double end,
           std::int64_t arg = 0, int tid = 0);

  /// Self time per span name, in seconds: each span's duration minus the
  /// part of its interval that its children cover, summed over spans.
  std::vector<std::pair<std::string, double>> self_times() const;
  /// Chrome trace-event JSON. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::int64_t arg = 0)
        : spans_(spans), id_(spans.open(name, arg)) {}
    ~Scope() { spans_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
    std::int64_t arg;
    int tid;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Growth of one published histogram's running sum between reads: the
/// seconds an engine phase took since the previous take().
class PhaseDelta {
 public:
  PhaseDelta(const char* engine, const char* phase);
  double take();

 private:
  dlb::obs::Histogram* h_;
  double last_;
};

/// Growth of one counter family's sum between reads.
class FamilyDelta {
 public:
  explicit FamilyDelta(std::string family);
  double take();

 private:
  std::string family_;
  double last_;
};

/// ru_maxrss of this process in MiB.
double peak_rss_mib();
/// Last-level cache size in bytes (32 MiB when the host does not say).
std::size_t llc_bytes();
/// Best of a few memcpy passes over two `bytes`-sized arrays, in GiB/s of
/// traffic (bytes read + bytes written).
double copy_gib_per_s(std::size_t bytes);

/// FNV-1a over the load vector's little-endian bytes.
std::uint64_t hash_loads(std::span<const dlb::Load> loads);
std::uint64_t hash_bytes(const std::string& s);

}  // namespace perfbench
