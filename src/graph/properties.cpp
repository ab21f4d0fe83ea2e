#include "graph/properties.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace dlb {

std::vector<int> bfs_distances(const Graph& g, NodeId source) {
  DLB_REQUIRE(g.valid_node(source), "bfs_distances: bad source");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::deque<NodeId> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (int p = 0; p < g.degree(); ++p) {
      const NodeId v = g.neighbor(u, p);
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  const auto dist = bfs_distances(g, 0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

bool is_bipartite(const Graph& g) {
  std::vector<int> color(static_cast<std::size_t>(g.num_nodes()), -1);
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (color[static_cast<std::size_t>(start)] >= 0) continue;
    color[static_cast<std::size_t>(start)] = 0;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (int p = 0; p < g.degree(); ++p) {
        const NodeId v = g.neighbor(u, p);
        auto& cv = color[static_cast<std::size_t>(v)];
        if (cv < 0) {
          cv = 1 - color[static_cast<std::size_t>(u)];
          queue.push_back(v);
        } else if (cv == color[static_cast<std::size_t>(u)]) {
          return false;
        }
      }
    }
  }
  return true;
}

int eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  int ecc = 0;
  for (int d : dist) {
    DLB_REQUIRE(d >= 0, "eccentricity: graph is disconnected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter(const Graph& g) {
  int diam = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    diam = std::max(diam, eccentricity(g, u));
  }
  return diam;
}

std::optional<int> odd_girth(const Graph& g) {
  // The shortest odd closed walk equals the shortest odd cycle, and for
  // every root u it is min over edges (a,b) with dist(u,a) == dist(u,b)
  // of dist(u,a) + dist(u,b) + 1, minimized over all roots. (An edge
  // inside one BFS level closes an odd walk through the root; the
  // shortest odd cycle is found when the root lies on it.)
  int best = std::numeric_limits<int>::max();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_distances(g, u);
    for (NodeId a = 0; a < g.num_nodes(); ++a) {
      if (dist[static_cast<std::size_t>(a)] < 0) continue;
      for (int p = 0; p < g.degree(); ++p) {
        const NodeId b = g.neighbor(a, p);
        // Visit each undirected edge once; skip self-edges (a degenerate
        // odd closed walk of length 1 is not a cycle of the graph).
        if (b <= a) continue;
        if (dist[static_cast<std::size_t>(b)] !=
            dist[static_cast<std::size_t>(a)])
          continue;
        best = std::min(best, 2 * dist[static_cast<std::size_t>(a)] + 1);
      }
    }
  }
  if (best == std::numeric_limits<int>::max()) return std::nullopt;
  return best;
}

std::optional<int> odd_girth_phi(const Graph& g) {
  const auto og = odd_girth(g);
  if (!og) return std::nullopt;
  return (*og - 1) / 2;
}

int verify_regular_symmetric(const Graph& g) {
  // Regularity is structural (fixed row width); verify symmetry by
  // checking the reverse-port involution, which the constructor built.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (int p = 0; p < g.degree(); ++p) {
      const NodeId v = g.neighbor(u, p);
      const int q = g.rev_port(u, p);
      DLB_REQUIRE(g.neighbor(v, q) == u,
                  "verify_regular_symmetric: reverse port broken");
      DLB_REQUIRE(g.rev_port(v, q) == p,
                  "verify_regular_symmetric: reverse pairing not involutive");
    }
  }
  return g.degree();
}

}  // namespace dlb
