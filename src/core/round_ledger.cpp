#include "core/round_ledger.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace dlb {

namespace {

std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void RoundLedger::apply_workload(WorkloadProcess& w, const char* kind,
                                 ThreadPool* pool, std::span<Load> loads) {
  obs::EngineTelemetry& tel = telemetry(kind);
  {
    obs::PhaseScope phase(tel.workload_prepare, "workload_prepare", kind, "t",
                          s_.t + 1);
    w.prepare_round(s_.t, loads);
  }
  obs::PhaseScope phase(tel.workload_apply, "workload_apply", kind, "t",
                        s_.t + 1);
  WorkloadTally tally;
  // Sparse fast path: a process that knows its touched-node set (burst
  // hotspot, adversary targets) hands it over — no n virtual delta()
  // calls per round. The list crosses a trust boundary and is tiny, so
  // its bounds check is always on.
  if (const std::vector<NodeId>* list = w.affected_nodes()) {
    const auto n = static_cast<NodeId>(loads.size());
    for (const NodeId u : *list) {
      DLB_REQUIRE(u >= 0 && u < n, "workload affected node out of range");
      tally.apply(u, loads[static_cast<std::size_t>(u)], w.delta(u, s_.t));
      if (tally.overflow_node >= 0) break;
    }
  } else {
    w.apply_dense(s_.t, loads,
                  pool != nullptr && pool->parallelism() > 1 ? pool : nullptr,
                  tally);
  }
  commit_workload(tally);
}

void RoundLedger::adopt(std::span<const Load> loads) {
  DLB_REQUIRE(!loads.empty(), "round engine: empty load vector");
  Load sum = 0;
  for (std::size_t u = 0; u < loads.size(); ++u) {
    if (__builtin_add_overflow(sum, loads[u], &sum)) {
      throw invariant_error("initial loads overflow the int64 total at node " +
                            std::to_string(u));
    }
  }
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  s_ = State{0, sum, sum, 0, 0, *lo, *hi, *lo};
  published_ = false;
}

void RoundLedger::commit_workload(const WorkloadTally& w) {
  const std::string round = " in round " + std::to_string(s_.t);
  if (w.overflow_node >= 0) {
    throw invariant_error("workload delta overflows the int64 load of node " +
                          std::to_string(w.overflow_node) + round);
  }
  State next = s_;
  if (w.ledger_overflow ||
      __builtin_add_overflow(next.injected, w.injected, &next.injected) ||
      __builtin_add_overflow(next.consumed, w.consumed, &next.consumed) ||
      __builtin_add_overflow(next.total, w.injected, &next.total) ||
      __builtin_sub_overflow(next.total, w.consumed, &next.total)) {
    throw invariant_error("workload churn overflows the int64 token ledger" +
                          round);
  }
  s_ = next;
}

std::uint64_t RoundLedger::round_begin() const noexcept {
  return obs::metrics_armed() ? mono_ns() : 0;
}

obs::EngineTelemetry& RoundLedger::telemetry(const char* kind) {
  if (!telemetry_) telemetry_ = std::make_unique<obs::EngineTelemetry>(kind);
  return *telemetry_;
}

void RoundLedger::round_end(std::uint64_t start_ns, const char* kind) {
  if (start_ns == 0) return;
  obs::EngineTelemetry& tel = telemetry(kind);
  tel.rounds.inc();
  tel.round_seconds.observe(static_cast<double>(mono_ns() - start_ns) * 1e-9);
  tel.time.set(s_.t);
  tel.injected.set(s_.injected);
  tel.consumed.set(s_.consumed);
  tel.min_load.set(s_.min);
  tel.max_load.set(s_.max);
  tel.discrepancy.set(s_.max - s_.min);
}

void RoundLedger::save_core(StateWriter& w, std::span<const Load> loads) const {
  // Length prefix, the loads, the eight ledger fields, the stats byte.
  w.reserve(8 + loads.size_bytes() + sizeof(State) + 1);
  w.vec_i64(loads);
  w.i64(s_.t);
  w.i64(s_.total);
  w.i64(s_.base);
  w.i64(s_.injected);
  w.i64(s_.consumed);
  w.i64(s_.min);
  w.i64(s_.max);
  w.i64(s_.min_seen);
  w.b(false);  // stats-dirty: never set
}

RoundLedger::Core RoundLedger::read_core(StateReader& r, std::size_t n) {
  Core c;
  c.loads = r.vec_i64();
  if (c.loads.size() != n) {
    throw serial_error("engine core state: load vector size mismatch");
  }
  State& s = c.ledger;
  s.t = r.i64();
  s.total = r.i64();
  s.base = r.i64();
  s.injected = r.i64();
  s.consumed = r.i64();
  s.min = r.i64();
  s.max = r.i64();
  s.min_seen = r.i64();
  if (r.b()) {
    throw serial_error(
        "engine core state: stats-dirty byte set (engines only write 0)");
  }
  r.expect_done("engine core state");
  // Refuse a state no run reaches: a restored engine must satisfy what
  // its audits check, Σx == total == base + injected − consumed, with
  // min/max those of the loads.
  if (s.t < 0 || s.injected < 0 || s.consumed < 0) {
    throw serial_error(
        "engine core state: negative round counter or workload total");
  }
  LoadScan scan;
  scan.add(c.loads);
  Load ledger = 0;
  if (__builtin_add_overflow(s.base, s.injected, &ledger) ||
      __builtin_sub_overflow(ledger, s.consumed, &ledger) ||
      ledger != s.total || scan.sum != s.total) {
    throw serial_error(
        "engine core state: ledger does not balance (Σx, total and "
        "base + injected − consumed disagree)");
  }
  if (scan.min != s.min || scan.max != s.max || s.min_seen > s.min) {
    throw serial_error(
        "engine core state: statistics disagree with the loads");
  }
  return c;
}

}  // namespace dlb
