#include "lowerbounds/rotor_parity.hpp"

#include <algorithm>
#include <limits>

#include "graph/properties.hpp"
#include "util/assertions.hpp"

namespace dlb {

NodeId odd_cycle_vertex(const Graph& g) {
  // Root achieving the odd-girth minimum lies on a shortest odd cycle.
  int best = std::numeric_limits<int>::max();
  NodeId best_root = -1;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_distances(g, u);
    for (NodeId a = 0; a < g.num_nodes(); ++a) {
      if (dist[static_cast<std::size_t>(a)] < 0) continue;
      for (int p = 0; p < g.degree(); ++p) {
        const NodeId b = g.neighbor(a, p);
        if (b <= a) continue;
        if (dist[static_cast<std::size_t>(b)] !=
            dist[static_cast<std::size_t>(a)])
          continue;
        const int len = 2 * dist[static_cast<std::size_t>(a)] + 1;
        if (len < best) {
          best = len;
          best_root = u;
        }
      }
    }
  }
  DLB_REQUIRE(best_root >= 0, "odd_cycle_vertex: graph is bipartite");
  return best_root;
}

RotorParityInstance make_rotor_parity_instance(const Graph& g, NodeId source,
                                               Load base_load) {
  DLB_REQUIRE(g.valid_node(source), "rotor-parity: bad source");
  const auto phi_opt = odd_girth_phi(g);
  DLB_REQUIRE(phi_opt.has_value(),
              "rotor-parity instance requires a non-bipartite graph");
  const int phi = *phi_opt;
  DLB_REQUIRE(base_load >= phi, "need L >= φ(G) for non-negative flows");

  const auto b = bfs_distances(g, source);
  for (int dist : b) {
    DLB_REQUIRE(dist >= 0, "rotor-parity: graph must be connected");
  }
  const int d = g.degree();
  const auto n = static_cast<std::size_t>(g.num_nodes());

  RotorParityInstance inst;
  inst.phi = phi;
  inst.base_load = base_load;
  inst.flows0.assign(n * static_cast<std::size_t>(d), 0);
  inst.initial.assign(n, 0);
  inst.rotors.assign(n, 0);
  inst.port_order.assign(n * static_cast<std::size_t>(d), 0);

  auto f0 = [&](NodeId v, NodeId w) -> Load {
    const int bv = b[static_cast<std::size_t>(v)];
    const int bw = b[static_cast<std::size_t>(w)];
    if (bv >= phi && bw >= phi) return base_load;
    // A same-level edge below φ would close an odd walk of length
    // 2·level+1 < odd girth — impossible when the source lies on a
    // shortest odd cycle. Guard it: the construction needs consecutive
    // levels here.
    DLB_REQUIRE(bv != bw,
                "rotor-parity: same-level edge below φ — pick a source on a "
                "shortest odd cycle (see odd_cycle_vertex)");
    const int m = std::min(bv, bw);
    return bv % 2 == 0 ? base_load + (phi - m) : base_load - (phi - m);
  };

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Prescribed flows of v take at most two adjacent values {c, c+1}.
    Load c = std::numeric_limits<Load>::max();
    Load out = 0;
    Load* row = inst.flows0.data() + static_cast<std::size_t>(v) * d;
    for (int p = 0; p < d; ++p) {
      const Load f = f0(v, g.neighbor(v, p));
      DLB_REQUIRE(f >= 0, "rotor-parity: negative prescribed flow");
      row[p] = f;
      out += f;
      c = std::min(c, f);
    }
    inst.initial[static_cast<std::size_t>(v)] = out;

    // Cyclic order: P1 (flow c+1) first, then P2 (flow c). With the
    // rotor starting at 0, step t serves exactly P1 with the extras and
    // leaves the rotor at |P1|; step t+1 serves exactly P2 and returns
    // it to 0 — the period-2 orbit of the proof.
    std::int32_t* order =
        inst.port_order.data() + static_cast<std::size_t>(v) * d;
    int fill = 0;
    for (int p = 0; p < d; ++p) {
      DLB_REQUIRE(row[p] == c || row[p] == c + 1,
                  "rotor-parity: flows not two adjacent values");
      if (row[p] == c + 1) order[fill++] = static_cast<std::int32_t>(p);
    }
    for (int p = 0; p < d; ++p) {
      if (row[p] == c) order[fill++] = static_cast<std::int32_t>(p);
    }
    DLB_REQUIRE(fill == d, "rotor-parity: port order incomplete");
  }
  return inst;
}

}  // namespace dlb
