#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>

#include "obs/trace.hpp"
#include "util/serial.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double total(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// ------------------------------------------------------------- Result --

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Result::get(const std::string& name, double fallback) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::hash(const std::string& name, std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  hashes_.emplace_back(name, buf);
}

bool Result::attempt(const char* what, const std::function<void()>& op) {
  ++attempted_;
  try {
    op();
    return true;
  } catch (const std::exception& e) {
    ++failed_;
    if (errors_.size() < 16) errors_.push_back(std::string(what) + ": " + e.what());
    return false;
  }
}

void Result::check(const std::string& what, bool ok) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 16) errors_.push_back("check failed: " + what);
}

void Result::write_json(std::ostream& out, const Options& o) const {
  out << "{\"workload\":";
  write_string(out, o.workload);
  out << ",\"seed\":" << o.seed << ",\"size\":\"" << (o.tiny ? "tiny" : "full")
      << "\",\"trace\":" << (o.trace ? 1 : 0) << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed_ << ",\"build\":{\"type\":";
  write_string(out, PERFBENCH_BUILD_TYPE);
  out << ",\"compiler\":";
  write_string(out, kCompiler);
  out << ",\"simd\":" << (dlb::simd::enabled() ? "true" : "false")
      << "},\"hashes\":{";
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, hashes_[i].first);
    out << ':';
    write_string(out, hashes_[i].second);
  }
  out << "},\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, errors_[i]);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ',';
    write_string(out, metrics_[i].name);
    out << ":{\"value\":";
    write_number(out, metrics_[i].value);
    out << ",\"unit\":";
    write_string(out, metrics_[i].unit);
    out << '}';
  }
  out << "}}\n";
}

// -------------------------------------------------------------- Spans --

int Spans::open(const char* name, std::int64_t arg) {
  if (!on_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, parent, now_s(), 0.0, arg, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Scopes close innermost-first; pop through to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Spans::add(const char* name, int parent, double start, double end,
                std::int64_t arg, int tid) {
  if (!on_) return;
  spans_.push_back({name, parent, start, end, arg, tid});
}

std::vector<std::pair<std::string, double>> Spans::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children of one span may overlap (concurrent sweep workers): merge
    // their intervals before subtracting what they cover.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start);
      const double hi = std::min(hi0, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += (s.end - s.start) - covered;
  }
  return {self.begin(), self.end()};
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":";
    write_string(out, s.name);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":";
    write_number(out, (s.start - origin) * 1e6);
    out << ",\"dur\":";
    write_number(out, (s.end - s.start) * 1e6);
    out << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"arg\":" << s.arg << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------- published series --

PhaseDelta::PhaseDelta(const char* engine, const char* phase)
    : h_(&dlb::obs::MetricsRegistry::instance().histogram(
          "dlb_engine_phase_seconds",
          "Wall-clock latency of one engine phase within a round.",
          dlb::obs::phase_seconds_bounds(),
          {{"engine", engine}, {"phase", phase}})),
      last_(h_->sum()) {}

double PhaseDelta::take() {
  const double now = h_->sum();
  const double d = now - last_;
  last_ = now;
  return d;
}

FamilyDelta::FamilyDelta(std::string family)
    : family_(std::move(family)),
      last_(dlb::obs::MetricsRegistry::instance().family_sum(family_)) {}

double FamilyDelta::take() {
  const double now = dlb::obs::MetricsRegistry::instance().family_sum(family_);
  const double d = now - last_;
  last_ = now;
  return d;
}

// --------------------------------------------------------- host probes --

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return l3 > 0 ? static_cast<std::size_t>(l3) : std::size_t{32} << 20;
}

double copy_gib_per_s(std::size_t bytes) {
  const std::unique_ptr<char[]> src(new char[bytes]);
  const std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 2, bytes);
  double best = 1e300;
  for (int pass = 0; pass < 4; ++pass) {
    const double t0 = now_s();
    std::memcpy(dst.get(), src.get(), bytes);
    best = std::min(best, now_s() - t0);
    src[static_cast<std::size_t>(pass) % bytes] = dst[bytes - 1];
  }
  return 2.0 * static_cast<double>(bytes) / best / (1024.0 * 1024.0 * 1024.0);
}

std::uint64_t hash_loads(std::span<const dlb::Load> loads) {
  std::uint64_t h = dlb::fnv1a64({});
  for (const dlb::Load x : loads) {
    std::uint8_t le[8];
    const auto u = static_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) le[b] = static_cast<std::uint8_t>(u >> (8 * b));
    h = dlb::fnv1a64(le, h);
  }
  return h;
}

std::uint64_t hash_bytes(const std::string& s) {
  return dlb::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

}  // namespace perfbench
