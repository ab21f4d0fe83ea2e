// Synchronous discrete diffusion engine with a two-phase decide/apply
// round pipeline.
//
// Observer-free rounds take the *scatter* path: prepare_round and
// decide_range write the round straight into the next-load buffer — no
// per-node record. A balancer whose gathers(g) is true stores every slot
// once; any other balancer adds token movements into the buffer, which
// the engine zero-fills first. Serial rounds run one
// decide_range over every node; pooled rounds of a parallel_decide_safe()
// gather run one decide_range per pool range, each into its own slots,
// and merge the ranges' emit statistics. Rows — the per-node records —
// are for observers and non-gather balancers only (plus a gather whose
// decides must stay serial): phase 1 fills each node's per-port record
// (decide), phase 2 pulls every node's incoming flow through rev_port
// and commits its next load (apply). Neither path has shared writes, so
// a parallel round is byte-identical to a serial one at any thread
// count. Every path writes the same next-load buffer, which then swaps
// with the loads.
// Token conservation is audited after every step (the paper's model
// conserves total load exactly). Gather and row rounds sweep their new
// loads once and fold Σ into that sweep, so their audit costs no second
// pass; the ledger rescans the loads on multi-touch rounds and on every
// kRescanInterval-th (64th) round (core/round_ledger.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balancer.hpp"
#include "core/load_vector.hpp"
#include "core/round_engine.hpp"
#include "graph/graph.hpp"

namespace dlb {

/// Receives the complete flow matrix after every engine step.
///
/// `flows` is laid out as [u * (d + d°) + port]; ports [0, d) are original
/// edges, [d, d + d°) self-loops. `pre` and `post` are the load vectors
/// before and after the step; `t` is the 1-based index of the completed
/// step (after the first step, t == 1). Attaching an observer forces the
/// engine onto the row (per-node record) path.
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
  /// observer switches the engine onto the row path.
  void add_observer(StepObserver& observer);

  const Graph& graph() const noexcept { return *g_; }
  int self_loops() const noexcept { return config_.self_loops; }
  int balancing_degree() const noexcept {
    return g_->degree() + config_.self_loops;
  }
  const EngineConfig& config() const noexcept { return config_; }
  Balancer& balancer() noexcept { return *balancer_; }
  const Balancer& balancer() const noexcept { return *balancer_; }

  /// True once the per-node record matrix has been allocated (i.e. some
  /// step ran on the row path — an observer, or a pooled round of a
  /// non-gather balancer). Observer-free runs of a parallel-safe gather
  /// keep this false, serial or pooled — the scatter path never touches
  /// a row buffer.
  bool flows_materialized() const noexcept { return !flows_.empty(); }

 protected:
  void do_step() override;
  void do_step_parallel(ThreadPool& pool) override;

 private:
  /// Ensures the n×d⁺ record matrix exists (contents need no zeroing:
  /// kernels overwrite every entry of the rows they decide).
  void ensure_rows();
  /// Apply phase over nodes [first, last): next(v) = kept(v) + incoming
  /// flow pulled from the neighbours' records through the topology's
  /// rev_port — computed arithmetic on structured graphs (the constant
  /// p^1 / p, no rev_ table traffic), table loads on generic ones. The
  /// range's min, max and Σ of next loads ride the same sweep and are
  /// returned (fused stats and conservation audit).
  template <class Topo>
  LoadScan apply_rows(const Topo& topo, NodeId first, NodeId last,
                      Load* next) const;
  /// One row-path round; `pool` may be null (serial decide + apply).
  void step_rows(ThreadPool* pool);
  /// One scatter-path round: prepare_round, then decide_range over the
  /// whole node range (`pool` null) or over every pool range (gather
  /// balancers only), then the coverage check and the swap.
  void step_scatter(ThreadPool* pool);

  const Graph* g_;
  EngineConfig config_;
  Balancer* balancer_;
  bool gather_;            // balancer's gathers(g): no zero-fill
  LoadVector next_;        // next loads: scatter target and apply target
  LoadVector flows_;       // n * (d + d°) records; allocated on first row step
  std::vector<StepObserver*> observers_;
};

}  // namespace dlb
