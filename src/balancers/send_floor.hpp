// SEND(⌊x/d⁺⌋): the simplest stateless cumulatively 0-fair balancer.
//
// Section 1.1: a node with load x sends ⌊x/d⁺⌋ tokens over every original
// edge; each self-loop also receives ⌊x/d⁺⌋ and the excess
// e(u) = x − d⁺·⌊x/d⁺⌋ < d⁺ stays as the remainder. Observation 2.2: this
// is cumulatively 0-fair, so Theorem 2.3 applies; it is *not* a good
// s-balancer (no self-loop is preferred), which is exactly the gap the
// paper's Table 1 marks as "open" for its O(d) convergence.
#pragma once

#include "core/balancer.hpp"
#include "util/intmath.hpp"

namespace dlb {

class CycleTopology;
class TorusTopology;

class SendFloor : public Balancer {
 public:
  std::string name() const override { return "SEND(floor)"; }
  void reset(const Graph& graph, int d_loops) override;
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;

  /// Scatter kernel: every neighbour gets ⌊x/d⁺⌋, the node keeps the rest
  /// (self-loop shares + excess) — no flow row ever exists. Row kernel:
  /// every port slot is ⌊x/d⁺⌋, one fill per node. The scatter kernel is
  /// templated on the topology: on tagged cycle/torus/hypercube graphs
  /// neighbours are computed, not loaded.
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, FlowSink& sink) override;

  bool parallel_decide_safe() const override { return true; }  // stateless

  /// The cycle stencil and the torus row gather store each slot once;
  /// the hypercube and generic graphs keep the multi-touch scatter.
  bool gathers(const Graph& g) const override;

 private:
  template <class Topo>
  void scatter_range(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);
  /// Cycle stencil: next(u) = kept(u) + ⌊x(u−1)/d⁺⌋ + ⌊x(u+1)/d⁺⌋ in one
  /// streaming sweep with a single store per next-load slot (integer
  /// addition commutes, so the trajectory is byte-identical to the
  /// generic scatter order).
  void scatter_range(const CycleTopology& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);
  /// Torus row-blocked gather stencil: per dimension-0 row, all neighbor
  /// offsets are constants, so the sweep is pure constant-stride
  /// streaming with one write per slot. (The hypercube stays on the
  /// cursor-scatter template: its d gather reads span the whole vector
  /// and the dependent-load chain costs more than the scatter writes;
  /// the generic fallback keeps the scatter form too — an arbitrary
  /// graph's gather reads are as random as its scatter writes, plus it
  /// would still stream the port tables.)
  void scatter_range(const TorusTopology& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);

  NonNegDiv div_;  // ⌊x/d⁺⌋ via shift when d⁺ is a power of two
};

}  // namespace dlb
