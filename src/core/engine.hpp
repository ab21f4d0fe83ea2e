// Synchronous discrete diffusion engine: one round rule, run two ways.
//
// Observer-free rounds run on a RoundPlan (core/round_plan.hpp). A serial
// round, or a pooled round of a balancer that is not
// parallel_decide_safe(), is the 1-part plan: prepare_round, then one
// decide_range writes the round straight into the next-load buffer. Other
// pooled rounds run min(parallelism, n) parts (planned on the first
// pooled round and kept) that decide concurrently and then add the cut
// flows staged for them, with no copy and no frame. Rows — per-node
// records — are for observers only: an observer round fills every
// record, pulls each node's incoming flow through rev_port and commits
// its next load, serially. No path has shared writes, so a pooled round
// is byte-identical to a serial one at any thread count. Gather and row
// rounds fold Σ into the sweep that writes their new loads for the
// per-round conservation audit, and pooled multi-touch parts scan their
// final slices; the ledger scans the loads on serial multi-touch rounds
// and every kRescanInterval-th round (core/round_ledger.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/balancer.hpp"
#include "core/load_vector.hpp"
#include "core/round_engine.hpp"
#include "core/round_plan.hpp"
#include "graph/graph.hpp"

namespace dlb {

/// Receives the complete flow matrix after every engine step.
///
/// `flows` is laid out as [u * (d + d°) + port]; ports [0, d) are original
/// edges, [d, d + d°) self-loops. `pre` and `post` are the load vectors
/// before and after the step; `t` is the 1-based index of the completed
/// step (after the first step, t == 1). Attaching an observer moves the
/// engine onto its serial row (per-node record) round.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_step(Step t, const Graph& g, int d_loops,
                       std::span<const Load> pre, std::span<const Load> flows,
                       std::span<const Load> post) = 0;
};

struct EngineConfig {
  int self_loops = 0;  ///< d°, the number of self-loops per node
};

/// Drives one balancer over one graph; owns loads and flow buffers.
class Engine : public RoundEngineBase {
 public:
  /// `initial` must have g.num_nodes() entries. The balancer is reset.
  Engine(const Graph& g, EngineConfig config, Balancer& balancer,
         LoadVector initial);

  /// Registers an observer (not owned); call before stepping. The first
  /// observer moves the engine onto its serial row round.
  void add_observer(StepObserver& observer);

  const Graph& graph() const noexcept { return *g_; }
  int self_loops() const noexcept { return config_.self_loops; }
  int balancing_degree() const noexcept {
    return g_->degree() + config_.self_loops;
  }
  const EngineConfig& config() const noexcept { return config_; }
  Balancer& balancer() noexcept { return *balancer_; }
  const Balancer& balancer() const noexcept { return *balancer_; }

  /// True once the per-node record matrix has been allocated, i.e. some
  /// step ran with an observer. Observer-free runs keep this false,
  /// serial or pooled — a plan round never touches a row buffer.
  bool flows_materialized() const noexcept { return !flows_.empty(); }

 protected:
  void do_step() override;
  void do_step_parallel(ThreadPool& pool) override;

 private:
  /// Apply phase: next(v) = kept(v) + the incoming flows pulled from the
  /// neighbours' records through rev_port (arithmetic on structured
  /// graphs, table loads on generic ones). Returns the min, max and Σ of
  /// the next loads, folded into the same sweep.
  template <class Topo>
  LoadScan apply_rows(const Topo& topo, Load* next) const;
  /// One observer round: decide into the n×d⁺ records, pull, notify.
  void step_rows();
  /// One observer-free round; `pool` runs the parts (null: in order).
  void step_plan(RoundPlan& plan, ThreadPool* pool);

  const Graph* g_;
  EngineConfig config_;
  Balancer* balancer_;
  LoadVector next_;        // next loads: plan target and apply target
  LoadVector flows_;       // n * (d + d°) records; allocated on first row step
  std::optional<RoundPlan> serial_;  // the 1-part plan
  std::optional<RoundPlan> pooled_;  // built on the first pooled round
  std::vector<StepObserver*> observers_;
};

}  // namespace dlb
