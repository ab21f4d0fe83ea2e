#include "balancers/send_round.hpp"

#include <algorithm>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

void SendRound::reset(const Graph& graph, int d_loops) {
  // Round-up steps send d·⌈x/d⁺⌉ over original edges, which only fits in
  // the available load when 2r >= d⁺ implies r >= d, i.e. d⁺ >= 2d.
  DLB_REQUIRE(d_loops >= graph.degree(), "SendRound requires d° >= d");
  d_ = graph.degree();
  d_loops_ = d_loops;
  d_plus_ = d_ + d_loops;
  guaranteed_s_ = d_plus_ > 2 * d_ ? (d_plus_ - 2 * d_ + 1) / 2 : 0;
  div_ = NonNegDiv(d_plus_);
  div_twice_ = NonNegDiv(2 * d_plus_);
}

void SendRound::decide(NodeId /*u*/, Load load, Step /*t*/,
                       std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "SendRound cannot handle negative load");
  const Load q = floor_div(load, d_plus_);
  const Load r = load - q * d_plus_;          // e(u) ∈ [0, d⁺)
  const Load nearest = round_nearest_div(load, d_plus_);

  // Original edges all receive [x/d⁺].
  for (int p = 0; p < d_; ++p) flows[static_cast<std::size_t>(p)] = nearest;

  // Self-loops: round-fair split of what remains, ceiling-first so the
  // algorithm is as self-preferring as the totals allow.
  Load extras;  // number of self-loops that receive q+1 instead of q
  if (nearest == q) {
    // Round-down case: d·q went out, excess is r; at most d° self-loops
    // can take one extra each, the rest stays as the remainder.
    extras = std::min<Load>(r, d_loops_);
  } else {
    // Round-up case (2r >= d⁺ implies r >= d, so load covers d·(q+1)):
    // remaining load is q·d° + (r − d) with 0 <= r − d < d°.
    extras = r - d_;
    DLB_ASSERT(extras >= 0 && extras < d_loops_ + 1,
               "SendRound: round-up arithmetic broken");
  }
  for (int k = 0; k < d_loops_; ++k) {
    flows[static_cast<std::size_t>(d_ + k)] = q + (k < extras ? 1 : 0);
  }
}

void SendRound::decide_range(NodeId first, NodeId last,
                             std::span<const Load> loads, Step /*t*/,
                             FlowSink& sink) {
  const int d = d_;
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "SendRound cannot handle negative load");
      const Load q = div_.quot(x);
      const Load r = x - q * d_plus_;
      const Load nearest = div_twice_.quot(2 * x + d_plus_);
      std::span<Load> row = sink.row(u);
      for (int p = 0; p < d; ++p) row[static_cast<std::size_t>(p)] = nearest;
      // Same ceiling-first self-loop split as decide().
      const Load extras =
          nearest == q ? std::min<Load>(r, d_loops_) : r - d;
      for (int k = 0; k < d_loops_; ++k) {
        row[static_cast<std::size_t>(d + k)] = q + (k < extras ? 1 : 0);
      }
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void SendRound::scatter_range(const Topo& topo, NodeId first, NodeId last,
                              std::span<const Load> loads, FlowSink& sink) {
  const int d = topo.degree();
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "SendRound cannot handle negative load");
    const Load nearest = div_twice_.quot(2 * x + d_plus_);
    for (int p = 0; p < d; ++p) {
      next[static_cast<std::size_t>(cur.neighbor(p))] += nearest;
    }
    // Self-loop shares and the remainder stay local — their split across
    // self-loop ports never moves a token.
    next[static_cast<std::size_t>(u)] += x - nearest * d;
  }
}

}  // namespace dlb
