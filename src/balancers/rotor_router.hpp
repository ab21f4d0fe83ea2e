// ROTOR-ROUTER (Propp machine) load balancing.
//
// Each node owns a rotor over its d⁺ ports (original edges and
// self-loops, in a per-node cyclic order). Tokens are dealt round-robin
// starting at the rotor, which then advances past the last port served.
// Dealing x tokens gives every port ⌊x/d⁺⌋ and the next x mod d⁺ ports
// one extra — so over any interval the cumulative flows of two ports
// differ by at most 1: ROTOR-ROUTER is cumulatively 1-fair
// (Observation 2.2) and Theorem 2.3 applies when d° >= d.
//
// The cyclic port order is an arbitrary per-node permutation (the paper
// allows any); a seed of 0 keeps the natural order (original edges then
// self-loops), any other seed shuffles per node. Initial rotor positions
// can be prescribed explicitly — the Thm 4.3 lower-bound construction
// needs exactly that control.
#pragma once

#include <cstdint>
#include <vector>

#include "core/balancer.hpp"
#include "util/intmath.hpp"

namespace dlb {

/// The rotor's per-port test: dealing r < `ports` extras from `rotor`
/// gives one to the port at cyclic position `pos` iff
/// (pos − rotor) mod ports < r. Both rotor balancers deal by it.
inline Load rotor_extra(int pos, int rotor, int ports, int r) {
  const int k = pos - rotor;
  return static_cast<Load>((k < 0 ? k + ports : k) < r);
}

/// The rotor after dealing those r extras: (rotor + r) mod ports.
inline int rotor_advance(int rotor, int ports, int r) {
  return rotor + r < ports ? rotor + r : rotor + r - ports;
}

class RotorRouter : public Balancer {
 public:
  /// `seed` randomizes per-node port orders and initial rotor positions;
  /// seed 0 means natural port order with all rotors at position 0.
  explicit RotorRouter(std::uint64_t seed = 0) : seed_(seed) {}

  std::string name() const override { return "ROTOR-ROUTER"; }
  /// Refuses d⁺ > 65536 (a cyclic position must fit the u16 table).
  void reset(const Graph& graph, int d_loops) override;
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;

  /// Scatter kernel: each real port p gets q + e_p (e_p = rotor_extra of
  /// p's cyclic position) in one add to its neighbour, then the node keeps
  /// the rest in one self-add — d + 1 adds per node, the flow row never
  /// materialized. Row kernel: row[p] = q + e_p for all d⁺ ports. The
  /// port loop is templated on the topology (computed neighbours on
  /// structured graphs); the positions are per-node state no formula can
  /// replace.
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, FlowSink& sink) override;

  bool parallel_decide_safe() const override { return true; }  // per-node rotors

  /// Prescribes initial rotor positions (applied at the next reset; must
  /// then match the graph size). Positions index the *cyclic order*, i.e.
  /// position k means the first token goes to the k-th port in this
  /// node's permutation.
  void set_initial_rotors(std::vector<int> rotors);

  /// Prescribes the cyclic port order explicitly: entry [u*d⁺ + k] is the
  /// port served k-th (counting from rotor position 0). Overrides the
  /// seed-derived permutation at the next reset. The Thm 4.3 adversary
  /// needs this to place the P1 ports ahead of the P2 ports.
  void set_port_order(std::vector<std::int32_t> order);

  /// Current rotor position of node u (for tests).
  int rotor(NodeId u) const;

  /// Snapshot state: the rotor positions (the port permutation is
  /// reconstructed from the seed / prescription by reset()).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  template <class Topo>
  void scatter_range(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);

  std::uint64_t seed_;
  int d_plus_ = 0;
  NonNegDiv div_;  // ⌊x/d⁺⌋ via shift when d⁺ is a power of two
  std::vector<int> rotor_;  // per node, in [0, d⁺)
  /// The inverse of the port order: entry [u*d⁺ + p] is port p's cyclic
  /// position at node u (the identity table for the natural order).
  std::vector<std::uint16_t> pos_;
  std::vector<int> prescribed_rotors_;
  std::vector<std::int32_t> prescribed_order_;
};

}  // namespace dlb
