// RoundEngineBase: the stepping substrate shared by every synchronous
// round engine in the library (the diffusive Engine, the irregular-graph
// IrregularEngine, and the matching-model DimensionExchange).
//
// The base owns the load vector, the run()/run_until_discrepancy() loops,
// and the intra-round parallel dispatch: step_parallel() (and the run
// loops) route through the subclass's do_step_parallel() once a pool is
// attached, byte-identically to a serial round at any thread count. The
// clock, the conservation ledger and its per-round audit, cached min/max
// statistics, the online-workload hook, telemetry and the core-state bytes
// are the RoundLedger it shares with ShardedEngine.
//
// Subclasses implement do_step(), which advances loads_ by exactly one
// synchronous round; the base then increments time and refreshes the
// audit and the cached statistics. Engines with a parallel round override
// do_step_parallel() too.
#pragma once

#include <cstdint>

#include "core/load_vector.hpp"
#include "core/round_ledger.hpp"
#include "util/serial.hpp"

namespace dlb {

class ThreadPool;
class WorkloadProcess;

class RoundEngineBase {
 public:
  virtual ~RoundEngineBase();

  RoundEngineBase(const RoundEngineBase&) = delete;
  RoundEngineBase& operator=(const RoundEngineBase&) = delete;

  /// Attaches a worker pool (not owned; must outlive the engine's runs;
  /// nullptr detaches). step_parallel() and the run loops then run the
  /// engine's parallel round, identical to the serial one at any size.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }
  ThreadPool* thread_pool() const noexcept { return pool_; }

  /// Attaches an online workload (not owned; must outlive the engine's
  /// runs; nullptr detaches). Before every subsequent round the engine
  /// applies the process's per-node deltas by WorkloadTally::apply's
  /// rule: positive deltas inject, negative deltas consume, truncated at
  /// zero load. Injection composes with parallel rounds: a dense round is
  /// the process's apply_dense() on the pool, byte-identical to the serial
  /// order at any thread count.
  void set_workload(WorkloadProcess* workload) noexcept {
    workload_ = workload;
  }
  WorkloadProcess* workload() const noexcept { return workload_; }

  /// Tokens the workload injected / consumed since adopt_loads. The
  /// conservation audit verifies Σx == base_total() + injected_total()
  /// − consumed_total() after every step.
  Load injected_total() const noexcept { return ledger_.injected_total(); }
  Load consumed_total() const noexcept { return ledger_.consumed_total(); }
  /// Σx₀: the static part of the conservation identity.
  Load base_total() const noexcept { return ledger_.base_total(); }

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

  const LoadVector& loads() const noexcept { return loads_; }
  Step time() const noexcept { return ledger_.time(); }
  /// Conserved total: Σx₀ plus the net workload churn so far.
  Load total() const noexcept { return ledger_.total(); }

  /// max − min of the current loads; O(1) from the cached statistics.
  Load discrepancy() const noexcept { return ledger_.discrepancy(); }
  double average() const {
    return static_cast<double>(total()) / static_cast<double>(loads_.size());
  }

  /// Minimum load ever observed on any node (negative iff the balancer
  /// drove some node negative, cf. the NL column of Table 1).
  Load min_load_seen() const noexcept { return ledger_.min_load_seen(); }

  /// Serializes the complete core stepping state in the shared
  /// RoundLedger::save_core layout: the load vector, the round counter,
  /// the conservation ledger, and the cached statistics. Pool and
  /// workload attachment are configuration and are NOT captured — the
  /// restore target must be configured identically.
  void save_core_state(StateWriter& w) const;

  /// Restores what save_core_state (or a ShardedEngine's) captured into
  /// an engine whose load vector has the same size. The whole blob is
  /// parsed first: on any serial_error nothing has changed.
  void load_core_state(StateReader& r);

 protected:
  RoundEngineBase();

  /// Installs the initial load vector (must be non-empty); computes the
  /// conserved total and primes the cached stats.
  void adopt_loads(LoadVector initial);

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

  /// A round that already swept its new loads (the apply pull, a gather's
  /// emit) publishes the min, max and wrapping Σ of that sweep here, from
  /// inside do_step()/do_step_parallel(). The audit checks that Σ against
  /// total(); the ledger still rescans the loads every kRescanInterval-th
  /// round, so a kernel whose Σ is right but whose buffer is not cannot
  /// pass unnoticed. A round that publishes nothing is scanned.
  void publish_round_stats(const LoadScan& round) noexcept {
    ledger_.publish_round_stats(round);
  }

  LoadVector loads_;

 private:
  /// One round with shared bookkeeping, the attached workload's churn
  /// first; `pool` is null for a serial round.
  void run_round(ThreadPool* pool);

  RoundLedger ledger_;
  ThreadPool* pool_ = nullptr;
  WorkloadProcess* workload_ = nullptr;
};

}  // namespace dlb
