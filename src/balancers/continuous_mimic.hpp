// CONT-MIMIC: the continuous-flow-mimicking algorithm of Akbari,
// Berenbrink & Sauerwald (PODC 2012) — Table 1's "computation based on
// continuous diffusion" row.
//
// The algorithm simulates the continuous diffusion process internally.
// For every directed edge e it tracks the cumulative continuous flow
// W_t(e) = Σ_{τ≤t} y_τ(u)/d⁺ (y = continuous loads) and each step sends
//   f_t(e) = round(W_t(e)) − F_{t−1}(e),
// keeping the discrete cumulative flow F within 1/2 of the continuous
// one. This achieves Θ(d) discrepancy after T — the best deterministic
// guarantee in the diffusive model — but pays for it (cf. Table 1's
// columns): it is stateful, it must know the continuous process (extra
// computation; in a real deployment, extra communication), and it can
// drive loads negative when a node's initial load is small. Our
// implementation is the contrast row for the paper's "simple schemes get
// almost the same guarantee" message.
#pragma once

#include <vector>

#include "core/balancer.hpp"

namespace dlb {

class ContinuousMimic : public Balancer {
 public:
  std::string name() const override { return "CONT-MIMIC"; }
  void reset(const Graph& graph, int d_loops) override;

  /// Requires an initial-load snapshot before the first step; the engine
  /// calls decide() node by node, so the balancer lazily captures the
  /// loads of step 0 from the first decide() round (t == 0 pre-loads are
  /// the engine's initial vector, which it sees one node at a time).
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;

  /// Advances the internal continuous process once per round (and
  /// captures the step-0 snapshot) — the shared state that keeps
  /// decide_range below free of cross-node writes.
  void prepare_round(std::span<const Load> loads, Step t,
                     FlowSink& sink) override;

  /// Kernel: the rounded cumulative-flow deltas, scattered edge by edge
  /// (scatter mode) or written into the per-node records (row mode) —
  /// same state evolution as n decide() calls, without a flow matrix.
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, FlowSink& sink) override;

  bool allows_negative() const override { return true; }

  /// Per-edge cumulative-flow state only (the continuous trajectory is
  /// advanced serially in prepare_round), so ranges may run concurrently.
  bool parallel_decide_safe() const override { return true; }

  /// Snapshot state: the full internal continuous process — step cursor,
  /// initialization progress, continuous loads y, and both cumulative
  /// flow vectors (bit-exact doubles; a restored run replays the same
  /// roundings).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  template <class Topo>
  void scatter_range(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);

  void advance_continuous();

  const Graph* g_ = nullptr;
  int d_ = 0;
  int d_loops_ = 0;
  int d_plus_ = 0;
  Step current_step_ = -1;
  bool initialized_ = false;
  NodeId seen_ = 0;  // nodes captured during step 0
  std::vector<double> y_;           // continuous loads at current step
  std::vector<double> w_cum_;       // cumulative continuous flow per edge
  std::vector<Load> f_cum_;         // cumulative discrete flow per edge
};

}  // namespace dlb
