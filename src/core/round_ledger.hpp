// RoundLedger: the round bookkeeping every synchronous round engine
// shares. RoundEngineBase (flat, irregular, dimension exchange) and
// ShardedEngine each hold one, so the two substrates cannot drift apart:
//   * the clock and the conservation ledger — Σx₀ (base), the tokens the
//     workload injected and consumed, and the conserved total
//     Σx₀ + injected − consumed, all int64-checked;
//   * the conservation audit, which every round runs. A round whose one
//     sweep already wrote its new loads (a gather kernel's emit, the apply
//     pull) publishes their min, max and Σ, and the audit checks that Σ
//     against the total with no second pass. A round that published
//     nothing is scanned instead. Every kRescanInterval-th round also
//     rescans the loads whatever was published — the independent check
//     that trusts no kernel's arithmetic, and the one that catches a
//     kernel whose Σ is right but whose buffer is not (a slot written
//     twice, another skipped) should no later round's sweep carry the
//     wrong Σ forward;
//   * the cached statistics (min, max, min ever seen), committed from the
//     published min/max, or from the scan on rounds that scanned;
//   * the workload phases, around the process's own apply;
//   * per-round telemetry and its lazily registered metric handles, the
//     scan included (phase "audit", timed only on rounds that scan);
//   * the core-state bytes after the load vector.
// Where the loads live and how a scan visits them stay with the engine;
// how a dense workload round is chunked is the process's
// (WorkloadProcess::apply_dense).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/load_vector.hpp"
#include "dynamics/workload.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"
#include "util/serial.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

/// Every kRescanInterval-th round rescans the engine's loads in full,
/// even when the round published a Σ from its own sweep.
inline constexpr int kRescanInterval = 64;

class RoundLedger {
 public:
  /// Restarts the ledger over non-empty `loads`: clock 0, Σx₀ (checked),
  /// min/max primed.
  void adopt(std::span<const Load> loads);

  Step time() const noexcept { return s_.t; }
  Load total() const noexcept { return s_.total; }
  Load base_total() const noexcept { return s_.base; }
  Load injected_total() const noexcept { return s_.injected; }
  Load consumed_total() const noexcept { return s_.consumed; }
  Load discrepancy() const noexcept { return s_.max - s_.min; }
  Load min_load_seen() const noexcept { return s_.min_seen; }

  /// A round that already swept its new loads (a fused apply pull, a
  /// gather kernel's emit) hands the min, max and wrapping Σ it saw here,
  /// and end_round commits and audits them without another O(n) pass; a
  /// multi-touch scatter round publishes nothing and end_round scans. The
  /// publication lasts until the next end_round.
  void publish_round_stats(const LoadScan& round) noexcept {
    round_ = round;
    published_ = true;
  }

  /// Closes a round: advances the clock, audits it and commits its
  /// statistics. A round that published nothing, and every
  /// kRescanInterval-th round, calls `scan()`, which must return the
  /// LoadScan of the engine's loads, timed as engine `kind`'s audit
  /// phase; any other round uses what it published. A round whose Σ
  /// differs from total() throws.
  template <class Scan>
  void end_round(const char* kind, Scan&& scan) {
    ++s_.t;
    const LoadScan x = published_ && s_.t % kRescanInterval != 0
                           ? round_
                           : timed_scan(kind, scan);
    DLB_REQUIRE(x.sum == s_.total,
                "token conservation violated by engine step");
    commit_stats(x.min, x.max);
    published_ = false;
  }

  /// Metrics around one round. round_begin() returns a monotonic stamp
  /// iff the registry is armed (0 otherwise), and round_end(0, …) is a
  /// no-op, so a disarmed round pays one relaxed load. round_end publishes
  /// the round counter, latency, ledger and statistics gauges; it reads
  /// the ledger only, so telemetry cannot perturb a run.
  std::uint64_t round_begin() const noexcept;
  void round_end(std::uint64_t start_ns, const char* kind);
  /// The metric handles of engine `kind`, registered on first use: the
  /// first armed round, or the first round with a workload.
  obs::EngineTelemetry& telemetry(const char* kind);

  /// One round's workload churn into the engine-wide `loads`, timed as
  /// the workload_prepare and workload_apply phases: `w` prepares the
  /// round over them (prepare_round), then applies a sparse round's list
  /// in list order through delta(), or its dense round through
  /// apply_dense() on `pool` (nullptr, or parallelism 1, for a serial
  /// round). Throws invariant_error naming the round when the ledger
  /// would leave int64, and the node too when a load would.
  void apply_workload(WorkloadProcess& w, const char* kind, ThreadPool* pool,
                      std::span<Load> loads);

  /// The core-state fields after the load vector, in byte order. The
  /// stats-dirty byte of the format is always written as 0; no engine
  /// leaves its statistics stale.
  struct State {
    Step t = 0;
    Load total = 0;
    Load base = 0;
    Load injected = 0;
    Load consumed = 0;
    Load min = 0;
    Load max = 0;
    Load min_seen = 0;
  };
  /// A parsed core state: the load vector and the ledger after it.
  struct Core {
    std::vector<std::int64_t> loads;
    State ledger;
  };
  /// Writes `loads` then this ledger: the layout every engine shares, so
  /// images move freely between the flat engine and any shard count.
  void save_core(StateWriter& w, std::span<const Load> loads) const;
  /// Parses a whole core-state blob for an engine of `n` nodes without
  /// touching any engine, so a restore commits all of it or nothing.
  /// Throws serial_error on a size mismatch, truncation, trailing bytes,
  /// a set stats-dirty byte, or a state no run reaches: a negative clock
  /// or workload total, a ledger that does not balance against Σx, or
  /// statistics that are not the loads' min/max.
  static Core read_core(StateReader& r, std::size_t n);
  /// Commits a parsed ledger (the engine commits the loads).
  void restore(const State& s) noexcept {
    s_ = s;
    published_ = false;
  }

 private:
  void commit_stats(Load lo, Load hi) noexcept {
    s_.min = lo;
    s_.max = hi;
    s_.min_seen = lo < s_.min_seen ? lo : s_.min_seen;
  }
  void commit_workload(const WorkloadTally& tally);
  /// scan(), under the audit phase when metrics or tracing are on (the
  /// handles are registered lazily, as round_end's are).
  template <class Scan>
  LoadScan timed_scan(const char* kind, Scan& scan) {
    if (!obs::metrics_armed() && !obs::trace_enabled()) return scan();
    obs::PhaseScope phase(telemetry(kind).audit, "audit", kind, "t", s_.t);
    return scan();
  }

  State s_;
  LoadScan round_;
  bool published_ = false;
  std::unique_ptr<obs::EngineTelemetry> telemetry_;
};

}  // namespace dlb
