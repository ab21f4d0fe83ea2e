#include "balancers/rotor_router_star.hpp"

#include "balancers/rotor_router.hpp"
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
    const FastModU64 ports(static_cast<std::uint64_t>(rotor_ports_));
    for (auto& r : rotor_) r = static_cast<int>(rng.uniform_u64(ports));
  }
}

void RotorRouterStar::decide(NodeId u, Load load, Step /*t*/,
                             std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "ROTOR-ROUTER* cannot handle negative load");
  const int d_plus = 2 * d_;
  const Load q = floor_div(load, d_plus);
  const int r = static_cast<int>(load - q * d_plus);

  // Port layout: [0, d) original edges, [d, 2d−1) ordinary self-loops,
  // 2d−1 the special self-loop, which takes the ceiling. The rotor deals
  // the rest over the first 2d−1 ports: q each plus r−1 extras (or none
  // when r == 0), its positions being the ports themselves.
  const int extras = r > 0 ? r - 1 : 0;
  int& rotor = rotor_[static_cast<std::size_t>(u)];
  for (int p = 0; p < rotor_ports_; ++p) {
    flows[static_cast<std::size_t>(p)] =
        q + rotor_extra(p, rotor, rotor_ports_, extras);
  }
  flows[static_cast<std::size_t>(d_plus - 1)] = q + (r > 0 ? 1 : 0);
  rotor = rotor_advance(rotor, rotor_ports_, extras);
}

void RotorRouterStar::decide_range(NodeId first, NodeId last,
                                   std::span<const Load> loads, Step /*t*/,
                                   FlowSink& sink) {
  const int d_plus = 2 * d_;
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "ROTOR-ROUTER* cannot handle negative load");
      const Load q = div_.quot(x);
      const int r = static_cast<int>(x - q * d_plus);
      const int extras = r > 0 ? r - 1 : 0;
      const int rotor = rotor_[static_cast<std::size_t>(u)];
      Load* const row = sink.row(u).data();
      for (int p = 0; p < rotor_ports_; ++p) {
        row[p] = q + rotor_extra(p, rotor, rotor_ports_, extras);
      }
      row[d_plus - 1] = q + (r > 0 ? 1 : 0);  // special
      rotor_[static_cast<std::size_t>(u)] =
          rotor_advance(rotor, rotor_ports_, extras);
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
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
    const int extras = r > 0 ? r - 1 : 0;
    const int rotor = rotor_[static_cast<std::size_t>(u)];

    // One add per real port carries its floor share and its extra; the
    // special self-loop's ceiling, the ordinary self-loop shares and their
    // extras all stay local in the one self-add.
    Load sent_extras = 0;
    for (int p = 0; p < d; ++p) {
      const Load e = rotor_extra(p, rotor, rotor_ports_, extras);
      next[static_cast<std::size_t>(cur.neighbor(p))] += q + e;
      sent_extras += e;
    }
    next[static_cast<std::size_t>(u)] += x - q * d - sent_extras;
    rotor_[static_cast<std::size_t>(u)] =
        rotor_advance(rotor, rotor_ports_, extras);
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
