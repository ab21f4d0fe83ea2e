#include "dimexchange/matching.hpp"

#include <algorithm>
#include <numeric>

#include "graph/topology.hpp"
#include "util/assertions.hpp"

namespace dlb {

void validate_matching(const Graph& g, const Matching& m) {
  std::vector<char> used(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const auto& [u, v] : m) {
    DLB_REQUIRE(g.valid_node(u) && g.valid_node(v), "matching: bad node");
    DLB_REQUIRE(u < v, "matching pairs must be stored as (u < v)");
    DLB_REQUIRE(!used[static_cast<std::size_t>(u)] &&
                    !used[static_cast<std::size_t>(v)],
                "matching: node matched twice");
    used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = 1;
    bool adjacent = false;
    for (int p = 0; p < g.degree() && !adjacent; ++p) {
      adjacent = g.neighbor(u, p) == v;
    }
    DLB_REQUIRE(adjacent, "matching: pair is not an edge");
  }
}

std::vector<Matching> hypercube_dimension_circuit(int dim) {
  DLB_REQUIRE(dim >= 1 && dim <= 20, "dimension circuit: bad dim");
  const NodeId n = static_cast<NodeId>(1) << dim;
  std::vector<Matching> circuit(static_cast<std::size_t>(dim));
  for (int k = 0; k < dim; ++k) {
    auto& m = circuit[static_cast<std::size_t>(k)];
    m.reserve(static_cast<std::size_t>(n) / 2);
    for (NodeId u = 0; u < n; ++u) {
      const NodeId v = u ^ (NodeId{1} << k);
      if (u < v) m.emplace_back(u, v);
    }
  }
  return circuit;
}

std::vector<Matching> edge_coloring_circuit(const Graph& g) {
  // Greedy: colour each undirected edge with the smallest colour free at
  // both endpoints; at most 2d−1 colours are ever needed.
  const int max_colors = 2 * g.degree() - 1;
  std::vector<std::vector<char>> busy(
      static_cast<std::size_t>(g.num_nodes()),
      std::vector<char>(static_cast<std::size_t>(max_colors), 0));
  std::vector<Matching> circuit(static_cast<std::size_t>(max_colors));

  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int p = 0; p < g.degree(); ++p) {
      const NodeId v = g.neighbor(u, p);
      if (v <= u) continue;  // visit each undirected edge once; skip selfs
      // Parallel edges: the same (u,v) may appear several times; each
      // copy gets its own colour, which greedy handles naturally.
      int c = 0;
      while (c < max_colors && (busy[static_cast<std::size_t>(u)][static_cast<std::size_t>(c)] ||
                                busy[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)])) {
        ++c;
      }
      DLB_REQUIRE(c < max_colors, "edge colouring exceeded 2d-1 colours");
      busy[static_cast<std::size_t>(u)][static_cast<std::size_t>(c)] = 1;
      busy[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)] = 1;
      circuit[static_cast<std::size_t>(c)].emplace_back(u, v);
    }
  }
  // Drop empty colour classes (possible on sparse graphs).
  circuit.erase(std::remove_if(circuit.begin(), circuit.end(),
                               [](const Matching& m) { return m.empty(); }),
                circuit.end());
  DLB_REQUIRE(!circuit.empty(), "edge colouring produced no matchings");
  return circuit;
}

Matching random_matching(const Graph& g, Rng& rng) {
  // Collect undirected edges (skip self-edges), shuffle, greedily match.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(g.num_directed_edges()) / 2);
  with_topology(g, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    for (NodeId u = 0; u < g.num_nodes(); ++u, cur.advance()) {
      for (int p = 0; p < g.degree(); ++p) {
        const NodeId v = cur.neighbor(p);
        if (u < v) edges.emplace_back(u, v);
      }
    }
  });
  rng.shuffle(edges);
  std::vector<char> used(static_cast<std::size_t>(g.num_nodes()), 0);
  Matching m;
  for (const auto& [u, v] : edges) {
    if (used[static_cast<std::size_t>(u)] || used[static_cast<std::size_t>(v)])
      continue;
    used[static_cast<std::size_t>(u)] = used[static_cast<std::size_t>(v)] = 1;
    m.emplace_back(u, v);
  }
  return m;
}

}  // namespace dlb
