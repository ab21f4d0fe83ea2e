// ROTOR-ROUTER*: the paper's good 1-balancer rotor variant (Section 1.1).
//
// Configuration: d° = d self-loops (so d⁺ = 2d). One *special* self-loop
// always receives ⌈x/(2d)⌉ = ⌈x/d⁺⌉ tokens; the remaining load is dealt
// by an ordinary rotor over the other 2d−1 ports (d original edges and
// d−1 self-loops). Arithmetic (x = q·2d + r):
//   r = 0:   special gets q, the 2d−1 rotor ports get exactly q each;
//   r >= 1:  special gets q+1, remaining q(2d−1) + (r−1) splits as q per
//            port plus r−1 rotor extras.
// Every port therefore gets ⌊x/d⁺⌋ or ⌈x/d⁺⌉ (round-fair), original-edge
// cumulative flows differ by <= 1 (cumulatively 1-fair), and whenever
// e(u) > 0 the special self-loop gets the ceiling — a good 1-balancer
// (Observation 3.2), so Theorem 3.3 gives O(d) discrepancy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/balancer.hpp"
#include "util/intmath.hpp"

namespace dlb {

class RotorRouterStar : public Balancer {
 public:
  explicit RotorRouterStar(std::uint64_t seed = 0) : seed_(seed) {}

  std::string name() const override { return "ROTOR-ROUTER*"; }

  /// Requires d_loops == graph.degree() (the paper fixes d° = d).
  void reset(const Graph& graph, int d_loops) override;
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;

  /// Scatter kernel: each real port p gets q plus its extra (the shared
  /// rotor_extra test over the 2d−1 rotor ports, r−1 extras) in one add
  /// to its neighbour; the special self-loop's ⌈x/d⁺⌉ and every ordinary
  /// self-loop share stay local in one self-add — no flow row is
  /// materialized. Row kernel: row[p] = q + e_p, then the special port's
  /// ceiling.
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, FlowSink& sink) override;

  bool parallel_decide_safe() const override { return true; }  // per-node rotors

  /// Snapshot state: the rotor positions over the 2d−1 ordinary ports.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  template <class Topo>
  void scatter_range(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink);

  std::uint64_t seed_;
  int d_ = 0;
  int rotor_ports_ = 0;  // 2d − 1
  NonNegDiv div_;        // ⌊x/2d⌋ via shift when 2d is a power of two
  std::vector<int> rotor_;
  // No port table: rotor positions are the ports themselves (the seed
  // only randomizes starting positions, never the port layout).
};

}  // namespace dlb
