// RoundEngineBase: the stepping substrate shared by every synchronous
// round engine in the library (the diffusive Engine, the irregular-graph
// IrregularEngine, and the matching-model DimensionExchange).
//
// The base owns everything the three engines used to copy-paste:
//   * the load vector, the step counter, and the conserved total;
//   * the run()/run_until_discrepancy() driver loops;
//   * the token-conservation audit, gated to every k-th step so that the
//     O(n) re-sum does not tax hot kernels (k = 1 preserves the classic
//     every-step behavior);
//   * a fused post-step statistics pass that computes min and max load in
//     one sweep, so discrepancy(), min_load_seen(), and the
//     run_until_discrepancy() stop test never re-scan the load vector —
//     and, for pure run(T) workloads, can be deferred entirely
//     (set_deferred_stats) so steps pay nothing and observables are
//     recomputed on demand;
//   * the intra-round parallel dispatch: set_thread_pool() attaches a
//     ThreadPool, step_parallel() (and the run loops, once a pool is
//     attached) routes through the subclass's do_step_parallel(). The
//     decide/apply engines guarantee a parallel round is byte-identical
//     to a serial one at any thread count;
//   * the online-workload hook: set_workload() attaches a
//     WorkloadProcess whose per-node deltas are applied before every
//     round (injection/consumption), with the conservation audit
//     extended to the dynamic invariant Σx == Σx₀ + injected − consumed.
//
// Subclasses implement do_step(), which must advance loads_ by exactly one
// synchronous round (and may fan out to observers before publishing the
// new loads); the base then increments time and refreshes the audit and
// the cached statistics. Engines with a contention-free two-phase round
// additionally override do_step_parallel().
#pragma once

#include <cstdint>
#include <memory>

#include "core/load_vector.hpp"
#include "util/serial.hpp"

namespace dlb {

namespace obs {
struct EngineTelemetry;
}  // namespace obs

class ThreadPool;
class WorkloadProcess;

/// Conservation-audit policy of a round engine.
struct ConservationPolicy {
  bool enabled = true;  ///< verify Σx == total after (gated) steps
  int interval = 1;     ///< audit every `interval`-th step (>= 1)

  /// Amortized audit for engines whose pre-refactor check was a
  /// debug-only assert: still always on, but the O(n) re-sum lands on one
  /// step in 64, which is noise next to the O(n·d) step work.
  static ConservationPolicy gated() { return {true, 64}; }
};

class RoundEngineBase {
 public:
  virtual ~RoundEngineBase();

  RoundEngineBase(const RoundEngineBase&) = delete;
  RoundEngineBase& operator=(const RoundEngineBase&) = delete;

  /// Attaches a worker pool (not owned; must outlive the engine's runs).
  /// Once attached, step_parallel() and the run loops execute rounds
  /// through the engine's parallel two-phase pipeline; results are
  /// identical to the serial path at any pool size. Pass nullptr to
  /// detach.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }
  ThreadPool* thread_pool() const noexcept { return pool_; }

  /// Attaches an online workload (not owned; must outlive the engine's
  /// runs; nullptr detaches). Before every subsequent round the engine
  /// applies the process's per-node deltas: positive deltas inject
  /// tokens, negative deltas consume — truncated at zero load, so churn
  /// never drives a node negative on its own (nodes already negative
  /// under an allows_negative() balancer contribute nothing). Injection
  /// composes with parallel rounds: when the process is
  /// parallel_generate_safe(), deltas of disjoint node ranges are
  /// generated and applied concurrently, byte-identically to the serial
  /// order.
  void set_workload(WorkloadProcess* workload) noexcept {
    workload_ = workload;
  }
  WorkloadProcess* workload() const noexcept { return workload_; }

  /// Tokens the workload injected / consumed since adopt_loads. The
  /// conservation audit verifies Σx == base_total() + injected_total()
  /// − consumed_total() on every audited step.
  Load injected_total() const noexcept { return injected_total_; }
  Load consumed_total() const noexcept { return consumed_total_; }
  /// Σx₀: the static part of the conservation identity.
  Load base_total() const noexcept { return base_total_; }

  /// Executes one synchronous round (serial path) plus shared bookkeeping.
  void step();

  /// Executes one round through the parallel pipeline when a pool with
  /// parallelism > 1 is attached; identical results to step().
  void step_parallel();

  /// Executes `steps` rounds (parallel rounds once a pool is attached).
  void run(Step steps);

  /// Runs until discrepancy() <= target or max_steps elapse; returns the
  /// number of *additional* steps taken.
  Step run_until_discrepancy(Load target, Step max_steps);

  /// When deferred, the fused per-step min/max pass is skipped and
  /// discrepancy()/min_load_seen() recompute on demand (and on gated
  /// conservation audits). min_load_seen() then reflects only the steps
  /// at which statistics were actually refreshed — pure run(T) workloads
  /// that only read the final state trade that fidelity for one less
  /// O(n) pass per step.
  void set_deferred_stats(bool deferred) noexcept { deferred_stats_ = deferred; }

  const LoadVector& loads() const noexcept { return loads_; }
  Step time() const noexcept { return t_; }
  /// Conserved total: Σx₀ plus the net workload churn so far.
  Load total() const noexcept { return total_; }

  /// max − min of the current loads; O(1) from the fused step statistics
  /// (recomputed on demand in deferred-stats mode).
  Load discrepancy() const noexcept {
    refresh_if_dirty();
    return max_load_ - min_load_;
  }
  double average() const {
    return static_cast<double>(total_) / static_cast<double>(loads_.size());
  }

  /// Minimum load ever observed on any node (negative iff the balancer
  /// drove some node negative, cf. the NL column of Table 1). In
  /// deferred-stats mode, only refreshed steps contribute.
  Load min_load_seen() const noexcept {
    refresh_if_dirty();
    return min_load_seen_;
  }

  /// Serializes the complete core stepping state: the load vector, the
  /// round counter, the conservation ledger (base/injected/consumed
  /// totals), and the cached statistics (including the dirty flag, so a
  /// deferred-stats run restores the exact same observable history it
  /// would have had uninterrupted). Audit policy, pool, and workload
  /// attachment are construction-time configuration and are NOT
  /// captured — the restore target must be configured identically.
  void save_core_state(StateWriter& w) const;

  /// Restores what save_core_state captured into an engine whose load
  /// vector has the same size; throws serial_error on size mismatch
  /// before mutating anything.
  void load_core_state(StateReader& r);

 protected:
  RoundEngineBase();

  /// Installs the initial load vector (must be non-empty) and the audit
  /// policy; computes the conserved total and primes the cached stats.
  void adopt_loads(LoadVector initial, ConservationPolicy audit);

  /// Telemetry label of this engine's metric series ("flat", "sharded",
  /// "irregular", ...). Consulted lazily on the first round that runs
  /// with the metrics registry armed.
  virtual const char* engine_kind() const noexcept { return "flat"; }

  /// Advances loads_ by one round. Runs with the *pre-increment* time();
  /// implementations that notify observers label the step time() + 1.
  virtual void do_step() = 0;

  /// Advances loads_ by one round using `pool` for intra-round
  /// parallelism; must produce exactly the loads do_step() would.
  /// Default: falls back to the serial round.
  virtual void do_step_parallel(ThreadPool& pool);

  /// Subclasses whose round already sweeps the new load vector (the
  /// engine's apply pull or the scatter accumulator's finalize) publish
  /// the min/max they computed in that same sweep here, from inside
  /// do_step()/do_step_parallel(). after_step() then commits them
  /// instead of re-scanning loads_ — one fewer O(n) pass per round.
  /// Gated conservation audits still re-sum (and re-derive min/max) from
  /// the loads themselves, so a wrong published value cannot survive an
  /// audited step. The publication is consumed by the next after_step()
  /// only; rounds that do not publish keep the classic refresh behavior.
  void publish_round_stats(Load lo, Load hi) noexcept {
    round_min_ = lo;
    round_max_ = hi;
    round_stats_valid_ = true;
  }

  LoadVector loads_;

 private:
  /// One fused pass over loads_: min/max always, Σx when auditing.
  void refresh_stats(bool audit_total) const;
  void refresh_if_dirty() const {
    if (stats_dirty_) refresh_stats(false);
  }
  /// Post-round bookkeeping shared by step() and step_parallel().
  void after_step();
  /// Metrics begin/commit around one round. round_begin() returns a
  /// monotonic start stamp iff the registry is armed (0 otherwise);
  /// round_end(0) is a no-op, so a disarmed round pays one relaxed load
  /// per call. round_end publishes the round counter, latency, ledger
  /// totals, and — only when the cached statistics are clean, never by
  /// forcing a refresh — the min/max/discrepancy gauges. Telemetry
  /// reads engine state exclusively; it cannot perturb determinism.
  std::uint64_t round_begin() const noexcept;
  void round_end(std::uint64_t start_ns);
  /// The metric handles, registered on first use: the first armed round,
  /// or the first round with a workload (its phase scopes need them).
  obs::EngineTelemetry& telemetry();
  /// Applies the attached workload's deltas for round t_ (no-op without
  /// one), timed as the workload_prepare and workload_apply phases.
  /// `pool` may be null; with parallelism > 1 the process prepares
  /// through prepare_parallel(), and its deltas are applied in parallel
  /// when it allows parallel generation.
  void apply_workload(ThreadPool* pool);

  Step t_ = 0;
  Load total_ = 0;
  Load base_total_ = 0;
  Load injected_total_ = 0;
  Load consumed_total_ = 0;
  mutable Load min_load_ = 0;
  mutable Load max_load_ = 0;
  mutable Load min_load_seen_ = 0;
  mutable bool stats_dirty_ = false;
  bool deferred_stats_ = false;
  Load round_min_ = 0;
  Load round_max_ = 0;
  bool round_stats_valid_ = false;
  ConservationPolicy audit_;
  ThreadPool* pool_ = nullptr;
  WorkloadProcess* workload_ = nullptr;
  /// Lazily-registered metric handles (null until telemetry() runs).
  std::unique_ptr<obs::EngineTelemetry> telemetry_;
};

}  // namespace dlb
