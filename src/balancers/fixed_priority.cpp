#include "balancers/fixed_priority.hpp"

#include <algorithm>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

void FixedPriority::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "FixedPriority: negative self-loop count");
  d_plus_ = graph.degree() + d_loops;
  div_ = NonNegDiv(d_plus_);
}

void FixedPriority::decide(NodeId /*u*/, Load load, Step /*t*/,
                           std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "FixedPriority cannot handle negative load");
  const Load q = floor_div(load, d_plus_);
  const Load r = load - q * d_plus_;
  for (int p = 0; p < d_plus_; ++p) {
    flows[static_cast<std::size_t>(p)] = q + (p < r ? 1 : 0);
  }
}

void FixedPriority::decide_range(NodeId first, NodeId last,
                                 std::span<const Load> loads, Step /*t*/,
                                 FlowSink& sink) {
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "FixedPriority cannot handle negative load");
      const Load q = div_.quot(x);
      const Load r = x - q * d_plus_;
      std::span<Load> row = sink.row(u);
      std::fill(row.begin(), row.end(), q);
      for (Load p = 0; p < r; ++p) ++row[static_cast<std::size_t>(p)];
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void FixedPriority::scatter_range(const Topo& topo, NodeId first, NodeId last,
                                  std::span<const Load> loads,
                                  FlowSink& sink) {
  const int d = topo.degree();
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "FixedPriority cannot handle negative load");
    const Load q = div_.quot(x);
    const Load r = x - q * d_plus_;
    // The first e(u) ports in priority order get one extra; only the
    // first min(e(u), d) of those are original edges.
    const Load edge_extras = std::min<Load>(r, d);
    for (int p = 0; p < d; ++p) {
      next[static_cast<std::size_t>(cur.neighbor(p))] +=
          q + (p < edge_extras ? 1 : 0);
    }
    // Self-loop shares (with their extras) and the remainder stay local.
    next[static_cast<std::size_t>(u)] += x - q * d - edge_extras;
  }
}

}  // namespace dlb
