#include "balancers/rotor_router_star.hpp"

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"

namespace dlb {

void RotorRouterStar::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops == graph.degree(),
              "ROTOR-ROUTER* requires d° == d (d⁺ = 2d)");
  d_ = graph.degree();
  rotor_ports_ = 2 * d_ - 1;
  DLB_REQUIRE(rotor_ports_ >= 1, "ROTOR-ROUTER* needs d >= 1");
  div_ = NonNegDiv(2 * d_);
  rotor_.assign(static_cast<std::size_t>(graph.num_nodes()), 0);
  if (seed_ != 0) {
    Rng rng(seed_);
    for (auto& r : rotor_) {
      r = static_cast<int>(rng.uniform_u64(
          static_cast<std::uint64_t>(rotor_ports_)));
    }
  }
  // No target table: ROTOR-ROUTER*'s rotor positions *are* ports (the
  // seed only randomizes starting positions, never the port layout), so
  // an extra token's destination is pure arithmetic — neighbor(u, pos)
  // for pos < d, u itself for the self-loop positions. The scatter
  // kernel computes it through the topology cursor; on structured graphs
  // that is register arithmetic with zero table traffic, on generic
  // graphs it reads the same adjacency entry the table would have cached.
}

void RotorRouterStar::decide(NodeId u, Load load, Step /*t*/,
                             std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "ROTOR-ROUTER* cannot handle negative load");
  const int d_plus = 2 * d_;
  const Load q = floor_div(load, d_plus);
  const Load r = load - q * d_plus;

  // Port layout: [0, d) original edges, [d, 2d−1) ordinary self-loops,
  // 2d−1 the special self-loop.
  const std::size_t special = static_cast<std::size_t>(d_plus - 1);
  flows[special] = q + (r > 0 ? 1 : 0);

  // Rotor-deal the rest over the first 2d−1 ports: q each plus r−1 extras
  // (or 0 extras when r == 0).
  const Load extras = r > 0 ? r - 1 : 0;
  for (int p = 0; p < rotor_ports_; ++p) {
    flows[static_cast<std::size_t>(p)] = q;
  }
  int& rotor = rotor_[static_cast<std::size_t>(u)];
  for (Load k = 0; k < extras; ++k) {
    ++flows[static_cast<std::size_t>((rotor + k) % rotor_ports_)];
  }
  rotor = static_cast<int>((rotor + extras) % rotor_ports_);
}

void RotorRouterStar::decide_range(NodeId first, NodeId last,
                                   std::span<const Load> loads, Step /*t*/,
                                   FlowSink& sink) {
  const Graph& g = sink.graph();
  const int d_plus = 2 * d_;
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "ROTOR-ROUTER* cannot handle negative load");
      const Load q = div_.quot(x);
      const int r = static_cast<int>(x - q * d_plus);
      int& rotor = rotor_[static_cast<std::size_t>(u)];
      std::span<Load> row = sink.row(u);
      std::fill(row.begin(), row.end(), q);
      row[static_cast<std::size_t>(d_plus - 1)] += r > 0 ? 1 : 0;  // special
      const int extras = r > 0 ? r - 1 : 0;
      // Rotor positions are ports directly (no permutation here); the
      // conditional subtract keeps the walk wrap- and division-free.
      for (int k = 0; k < rotor_ports_ - 1; ++k) {
        int pos = rotor + k;
        pos -= pos >= rotor_ports_ ? rotor_ports_ : 0;
        row[static_cast<std::size_t>(pos)] += static_cast<Load>(k < extras);
      }
      rotor = rotor + extras < rotor_ports_ ? rotor + extras
                                            : rotor + extras - rotor_ports_;
    }
    return;
  }
  with_topology(g, [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void RotorRouterStar::scatter_range(const Topo& topo, NodeId first,
                                    NodeId last, std::span<const Load> loads,
                                    FlowSink& sink) {
  const int d = topo.degree();
  const int d_plus = 2 * d_;
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "ROTOR-ROUTER* cannot handle negative load");
    const Load q = div_.quot(x);
    const int r = static_cast<int>(x - q * d_plus);
    int& rotor = rotor_[static_cast<std::size_t>(u)];

    // Ports [0, d) are real edges; [d, 2d−1) ordinary self-loops and
    // 2d−1 the special one — all self-loops resolve to "keep local".
    for (int p = 0; p < d; ++p) {
      next[static_cast<std::size_t>(cur.neighbor(p))] += q;
    }
    // The special self-loop's q + (r > 0) ceiling share stays local, as
    // do the ordinary self-loop base shares; the r−1 rotor extras land on
    // *computed* targets — rotor positions are ports directly, so the
    // destination is neighbor(u, pos) for pos < d and u itself otherwise
    // (pure arithmetic on structured graphs, one adjacency read on
    // generic ones; the old precomputed table is gone).
    const int extras = r > 0 ? r - 1 : 0;
    // Fixed trip count of 2d−2 with a masked increment — a data-dependent
    // `k < extras` bound would mispredict on nearly every node. The
    // conditional subtract keeps the walk wrap- and division-free.
    for (int k = 0; k < rotor_ports_ - 1; ++k) {
      int pos = rotor + k;
      pos -= pos >= rotor_ports_ ? rotor_ports_ : 0;
      const NodeId dest = pos < d ? cur.neighbor(pos) : u;
      next[static_cast<std::size_t>(dest)] += static_cast<Load>(k < extras);
    }
    rotor = rotor + extras < rotor_ports_ ? rotor + extras
                                          : rotor + extras - rotor_ports_;
    next[static_cast<std::size_t>(u)] += x - q * d - extras;
  }
}


void RotorRouterStar::save_state(StateWriter& w) const { w.vec_int(rotor_); }

void RotorRouterStar::load_state(StateReader& r) {
  std::vector<int> rotor = r.vec_int();
  DLB_REQUIRE(rotor.size() == rotor_.size(),
              "RotorRouterStar: rotor state size mismatch");
  for (int pos : rotor) {
    DLB_REQUIRE(pos >= 0 && pos < rotor_ports_,
                "RotorRouterStar: rotor position out of range");
  }
  rotor_ = std::move(rotor);
}

}  // namespace dlb
