#include "graph/graph.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "graph/topology.hpp"

namespace dlb {

Graph::Graph(NodeId num_nodes, int degree, std::vector<NodeId> adjacency,
             std::string name, bool allow_self_edges)
    : n_(num_nodes), d_(degree), adj_(std::move(adjacency)),
      name_(std::move(name)) {
  DLB_REQUIRE(n_ > 0, "graph must have at least one node");
  DLB_REQUIRE(d_ > 0, "graph must have positive degree");
  DLB_REQUIRE(adj_.size() == static_cast<std::size_t>(n_) * d_,
              "adjacency array size must be n*d");
  for (NodeId u = 0; u < n_; ++u) {
    for (int p = 0; p < d_; ++p) {
      const NodeId v = adj_[static_cast<std::size_t>(u) * d_ + p];
      DLB_REQUIRE(v >= 0 && v < n_, "adjacency entry out of range");
      DLB_REQUIRE(allow_self_edges || v != u,
                  "self-edges are not allowed in the original graph");
    }
  }
  build_reverse_ports();
}

Graph Graph::implicit(NodeId num_nodes, int degree, std::string name,
                      StructureInfo structure) {
  Graph g;
  g.n_ = num_nodes;
  g.d_ = degree;
  g.name_ = std::move(name);
  g.structure_ = std::move(structure);
  DLB_REQUIRE(g.n_ > 0, "graph must have at least one node");
  DLB_REQUIRE(g.d_ > 0, "graph must have positive degree");
  g.verify_structure();
  return g;
}

NodeId Graph::implicit_neighbor(NodeId u, int port) const {
  // Non-inline on purpose: graph.hpp cannot see topology.hpp (it includes
  // graph.hpp), and this path is for slow-path callers — hot kernels
  // template on the trait types directly.
  return with_topology(*this,
                       [&](const auto& topo) { return topo.neighbor(u, port); });
}

std::uint64_t Graph::adjacency_hash() const {
  std::uint64_t h = 0;
  if (adjacency_hash_.get(h)) return h;
  h = 0xcbf29ce484222325ULL;
  with_topology(*this, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    for (NodeId u = 0; u < n_; ++u, cur.advance()) {
      for (int p = 0; p < d_; ++p) {
        const auto v = static_cast<std::uint32_t>(cur.neighbor(p));
        for (int byte = 0; byte < 4; ++byte) {
          h ^= static_cast<std::uint8_t>(v >> (8 * byte));
          h *= 0x100000001b3ULL;
        }
      }
    }
  });
  adjacency_hash_.set(h);
  return h;
}

Graph Graph::without_structure() const {
  if (structure_.kind == GraphStructure::kGeneric) return *this;
  std::vector<NodeId> adj(static_cast<std::size_t>(n_) * d_);
  with_topology(*this, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    NodeId* row = adj.data();
    for (NodeId u = 0; u < n_; ++u, cur.advance(), row += d_) {
      for (int p = 0; p < d_; ++p) row[p] = cur.neighbor(p);
    }
  });
  return Graph(n_, d_, std::move(adj), name_);
}

void Graph::verify_structure() const {
  switch (structure_.kind) {
    case GraphStructure::kGeneric:
      DLB_REQUIRE(false, "implicit graph needs a concrete structure tag");
      break;
    case GraphStructure::kCycle:
      DLB_REQUIRE(d_ == 2 && n_ >= 3 && structure_.extents.empty(),
                  "cycle tag: need d == 2, n >= 3, no extents");
      break;
    case GraphStructure::kTorus: {
      const auto& ext = structure_.extents;
      DLB_REQUIRE(!ext.empty() &&
                      ext.size() <=
                          static_cast<std::size_t>(TorusTopology::kMaxDims),
                  "torus tag: bad dimension count");
      std::int64_t prod = 1;
      for (NodeId e : ext) {
        DLB_REQUIRE(e >= 3, "torus tag: extents must be >= 3");
        prod *= e;
        DLB_REQUIRE(prod <= n_, "torus tag: extents do not match n and d");
      }
      DLB_REQUIRE(prod == n_ && d_ == 2 * static_cast<int>(ext.size()),
                  "torus tag: extents do not match n and d");
      break;
    }
    case GraphStructure::kHypercube:
      DLB_REQUIRE(d_ >= 1 && d_ < 31 && n_ == (NodeId{1} << d_) &&
                      structure_.extents.empty(),
                  "hypercube tag: need n == 2^d, no extents");
      break;
  }
}

void Graph::build_reverse_ports() {
  rev_.assign(adj_.size(), -1);

  // Group ports by unordered endpoint pair, then match the u→v ports with
  // the v→u ports in order. This handles parallel edges: the k-th copy of
  // u→v pairs with the k-th copy of v→u.
  std::map<std::pair<NodeId, NodeId>, std::pair<std::vector<int>, std::vector<int>>>
      buckets;
  for (NodeId u = 0; u < n_; ++u) {
    for (int p = 0; p < d_; ++p) {
      const NodeId v = neighbor(u, p);
      const auto key = std::minmax(u, v);
      auto& bucket = buckets[{key.first, key.second}];
      if (u == key.first) {
        bucket.first.push_back(p + u * d_);
      } else {
        bucket.second.push_back(p + u * d_);
      }
    }
  }

  for (const auto& [key, bucket] : buckets) {
    const auto& fwd = bucket.first;   // ports out of min(u,v)
    const auto& bwd = bucket.second;  // ports out of max(u,v)
    if (key.first == key.second) {
      // Self-edges: all ports land in fwd; they must come in pairs (a map
      // fixing a point is always accompanied by its inverse) and are
      // paired consecutively with each other.
      DLB_REQUIRE(bwd.empty() && fwd.size() % 2 == 0,
                  "self-edge ports must come in pairs");
      for (std::size_t k = 0; k + 1 < fwd.size(); k += 2) {
        rev_[static_cast<std::size_t>(fwd[k])] =
            static_cast<std::int32_t>(fwd[k + 1] % d_);
        rev_[static_cast<std::size_t>(fwd[k + 1])] =
            static_cast<std::int32_t>(fwd[k] % d_);
      }
      continue;
    }
    DLB_REQUIRE(fwd.size() == bwd.size(),
                "graph is not symmetric: directed edge multiset mismatch");
    if (fwd.size() > 1) has_parallel_ = true;
    for (std::size_t k = 0; k < fwd.size(); ++k) {
      // rev_ stores the *port index at the other endpoint*, not the flat id.
      rev_[static_cast<std::size_t>(fwd[k])] =
          static_cast<std::int32_t>(bwd[k] % d_);
      rev_[static_cast<std::size_t>(bwd[k])] =
          static_cast<std::int32_t>(fwd[k] % d_);
    }
  }

  for (std::size_t i = 0; i < rev_.size(); ++i) {
    DLB_REQUIRE(rev_[i] >= 0, "reverse-port construction incomplete");
  }
}

}  // namespace dlb
