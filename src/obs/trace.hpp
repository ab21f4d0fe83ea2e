// Phase tracer: bounded in-memory ring of begin/end spans, exported as
// Chrome trace-event JSON (the format Perfetto and chrome://tracing
// load natively).
//
// The contract mirrors the metrics registry's: engines instrument
// unconditionally, and a *disabled* tracer costs exactly one relaxed
// bool load + branch per span site — no clock read, no allocation. The
// ring itself is only allocated when tracing is enabled (via the
// DLB_TRACE environment variable, a service flag, or Tracer::enable()),
// so default runs never touch the memory.
//
// Recording is lock-free: each span claims a slot with one fetch_add on
// the ring cursor and writes it without synchronization. When the ring
// wraps, the oldest spans are overwritten (bounded memory by design;
// dropped() reports how many). Export is defined at quiescence — call
// write_chrome_trace() when no engine threads are mid-span, e.g. after
// run loops return; concurrent recording during export may tear the
// spans written in that instant, never crash.
//
// Determinism: the tracer reads the monotonic clock and writes into its
// own ring. It never touches engine state, so golden suites hold
// bit-for-bit with tracing on or off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/metrics.hpp"

namespace dlb::obs {

/// One completed span. Names and categories are static strings (the
/// instrumentation sites pass literals), so the ring stores pointers.
struct TraceEvent {
  const char* name = nullptr;  ///< e.g. "decide", "drain", "checkpoint"
  const char* cat = nullptr;   ///< e.g. "round", "shard", "pool"
  std::uint64_t start_ns = 0;  ///< monotonic, relative to enable()
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;           ///< stable per-thread trace id
  const char* arg_name = nullptr;  ///< optional integer arg (round, shard)
  std::int64_t arg_value = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;  // 3 MiB of spans

  static Tracer& instance();

  /// True when DLB_TRACE is set to anything but "" or "0" — the opt-in
  /// the service and bench check at startup.
  static bool env_requested() noexcept;

  /// Allocates the ring (if needed) and starts recording. The monotonic
  /// origin resets so exported timestamps start near zero. Idempotent;
  /// re-enabling with a different capacity reallocates an empty ring.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable() noexcept;
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one completed span. No-op (one branch) when disabled.
  void record(const char* name, const char* cat, std::uint64_t start_ns,
              std::uint64_t dur_ns, const char* arg_name = nullptr,
              std::int64_t arg_value = 0) noexcept;

  /// Nanoseconds since enable() on the monotonic clock.
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count()) -
           origin_ns_;
  }

  /// Spans currently resident in the ring.
  std::size_t size() const noexcept;
  /// Spans overwritten because the ring wrapped.
  std::uint64_t dropped() const noexcept;
  void clear() noexcept;

  /// Chrome trace-event JSON ({"traceEvents":[...]}), "X" complete
  /// events sorted by start time. Call at quiescence (no threads
  /// mid-span).
  void write_chrome_trace(std::ostream& out) const;
  /// write_chrome_trace() into `path` (atomic tmp+rename). Returns false
  /// on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::unique_ptr<TraceEvent[]> ring_;
  std::size_t capacity_ = 0;
  std::atomic<std::uint64_t> cursor_{0};
  std::uint64_t origin_ns_ = 0;
};

inline bool trace_enabled() noexcept { return Tracer::instance().enabled(); }

/// RAII span. Construction samples the clock iff the tracer is enabled;
/// destruction records. Hot-path sites construct this unconditionally
/// and pay one branch when tracing is off.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, const char* arg_name = nullptr,
            std::int64_t arg_value = 0) noexcept
      : name_(name), cat_(cat), arg_name_(arg_name), arg_value_(arg_value) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      active_ = true;
      start_ns_ = t.now_ns();
    }
  }
  ~TraceSpan() {
    if (!active_) return;
    Tracer& t = Tracer::instance();
    t.record(name_, cat_, start_ns_, t.now_ns() - start_ns_, arg_name_,
             arg_value_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  std::int64_t arg_value_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

/// RAII phase probe: one clock pair feeds both the tracer (a span) and a
/// latency histogram (seconds). The single instrumentation primitive the
/// engines use for prepare/decide/drain/apply/checkpoint — when neither
/// metrics nor tracing is armed it costs two relaxed loads and no clock
/// read.
class PhaseScope {
 public:
  PhaseScope(Histogram& latency, const char* name, const char* cat,
             const char* arg_name = nullptr, std::int64_t arg_value = 0) noexcept
      : latency_(&latency), name_(name), cat_(cat), arg_name_(arg_name),
        arg_value_(arg_value) {
    metrics_on_ = metrics_armed();
    trace_on_ = trace_enabled();
    if (metrics_on_ || trace_on_) start_ns_ = Tracer::instance().now_ns();
  }
  ~PhaseScope() {
    if (!metrics_on_ && !trace_on_) return;
    Tracer& t = Tracer::instance();
    const std::uint64_t dur_ns = t.now_ns() - start_ns_;
    if (metrics_on_) {
      latency_->observe(static_cast<double>(dur_ns) * 1e-9);
    }
    if (trace_on_) {
      t.record(name_, cat_, start_ns_, dur_ns, arg_name_, arg_value_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Histogram* latency_;
  const char* name_;
  const char* cat_;
  const char* arg_name_;
  std::int64_t arg_value_;
  std::uint64_t start_ns_ = 0;
  bool metrics_on_ = false;
  bool trace_on_ = false;
};

/// Default latency-histogram bounds for engine phases: 1 µs … ~8.4 s in
/// powers of four (12 buckets + +Inf) — wide enough for a 2^20-node
/// checkpoint, fine enough to separate SIMD decide from scalar.
std::vector<double> phase_seconds_bounds();

}  // namespace dlb::obs
