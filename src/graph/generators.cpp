#include "graph/generators.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

namespace dlb {
namespace {

/// Packs an unordered node pair into one key for hashing.
std::uint64_t pair_key(NodeId a, NodeId b) noexcept {
  const auto lo = static_cast<std::uint32_t>(std::min(a, b));
  const auto hi = static_cast<std::uint32_t>(std::max(a, b));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace

Graph make_cycle(NodeId n) {
  DLB_REQUIRE(n >= 3, "cycle needs n >= 3");
  return Graph::implicit(n, 2, "cycle(" + std::to_string(n) + ")",
                         StructureInfo{GraphStructure::kCycle, {}});
}

Graph make_torus2d(NodeId width, NodeId height) {
  return make_torus({width, height});
}

Graph make_torus(const std::vector<NodeId>& extents) {
  DLB_REQUIRE(!extents.empty(), "torus needs at least one dimension");
  std::int64_t n64 = 1;
  for (NodeId e : extents) {
    DLB_REQUIRE(e >= 3, "torus extents must be >= 3 (avoids parallel edges)");
    n64 *= e;
    DLB_REQUIRE(n64 <= (1 << 26), "torus too large");
  }
  std::string name = "torus(";
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (k) name += "x";
    name += std::to_string(extents[k]);
  }
  name += ")";
  return Graph::implicit(static_cast<NodeId>(n64),
                         2 * static_cast<int>(extents.size()), std::move(name),
                         StructureInfo{GraphStructure::kTorus, extents});
}

Graph make_hypercube(int dim) {
  DLB_REQUIRE(dim >= 1 && dim <= 20, "hypercube dim must be in [1,20]");
  return Graph::implicit(NodeId{1} << dim, dim,
                         "hypercube(" + std::to_string(dim) + ")",
                         StructureInfo{GraphStructure::kHypercube, {}});
}

Graph make_complete(NodeId n) {
  DLB_REQUIRE(n >= 2, "complete graph needs n >= 2");
  const int d = n - 1;
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId u = 0; u < n; ++u) {
    int p = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      adj[static_cast<std::size_t>(u) * d + p++] = v;
    }
  }
  return Graph(n, d, std::move(adj), "complete(" + std::to_string(n) + ")");
}

namespace {

/// Shared circulant adjacency builder; returns {adjacency, degree}.
std::pair<std::vector<NodeId>, int> circulant_adjacency(
    NodeId n, const std::vector<NodeId>& offsets) {
  DLB_REQUIRE(n >= 3, "circulant needs n >= 3");
  DLB_REQUIRE(!offsets.empty(), "circulant needs offsets");
  int d = 0;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const NodeId o = offsets[i];
    DLB_REQUIRE(o >= 1 && 2 * o <= n, "circulant offset out of range");
    for (std::size_t j = i + 1; j < offsets.size(); ++j) {
      DLB_REQUIRE(offsets[j] != o, "circulant offsets must be distinct");
    }
    d += (2 * o == n) ? 1 : 2;
  }

  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId u = 0; u < n; ++u) {
    int p = 0;
    for (NodeId o : offsets) {
      adj[static_cast<std::size_t>(u) * d + p++] = (u + o) % n;
      if (2 * o != n) {
        adj[static_cast<std::size_t>(u) * d + p++] = (u + n - o) % n;
      }
    }
  }
  return {std::move(adj), d};
}

}  // namespace

Graph make_circulant(NodeId n, const std::vector<NodeId>& offsets) {
  auto [adj, d] = circulant_adjacency(n, offsets);
  return Graph(n, d, std::move(adj),
               "circulant(" + std::to_string(n) + ",k=" +
                   std::to_string(offsets.size()) + ")");
}

Graph make_clique_circulant(NodeId n, int d) {
  DLB_REQUIRE(d >= 2, "clique_circulant needs d >= 2");
  DLB_REQUIRE(n > 2 * (d / 2) + 1, "clique_circulant needs n > d+1");
  std::vector<NodeId> offsets;
  for (NodeId o = 1; o <= d / 2; ++o) offsets.push_back(o);
  if (d % 2 == 1) {
    DLB_REQUIRE(n % 2 == 0, "odd degree requires even n (diametral edge)");
    offsets.push_back(n / 2);
  }
  auto [adj, built_d] = circulant_adjacency(n, offsets);
  DLB_REQUIRE(built_d == d, "clique_circulant degree mismatch");
  return Graph(n, d, std::move(adj),
               "clique_circulant(" + std::to_string(n) + "," +
                   std::to_string(d) + ")");
}

Graph make_debruijn(NodeId base, int digits) {
  DLB_REQUIRE(base >= 2, "debruijn needs base >= 2");
  DLB_REQUIRE(digits >= 2, "debruijn needs digits >= 2");
  std::int64_t n64 = 1;
  for (int i = 0; i < digits; ++i) {
    n64 *= base;
    DLB_REQUIRE(n64 <= (1 << 26), "debruijn graph too large");
  }
  const auto n = static_cast<NodeId>(n64);
  const NodeId shift = static_cast<NodeId>(n64 / base);  // base^(digits-1)
  const int d = 2 * static_cast<int>(base);

  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId u = 0; u < n; ++u) {
    NodeId* row = adj.data() + static_cast<std::size_t>(u) * d;
    for (NodeId a = 0; a < base; ++a) {
      // Out-shift: drop the leading digit, append a.
      row[a] = static_cast<NodeId>(
          (static_cast<std::int64_t>(u) * base + a) % n);
      // In-shift: drop the trailing digit, prepend a.
      row[base + a] = a * shift + u / base;
    }
  }
  return Graph(n, d, std::move(adj),
               "debruijn(" + std::to_string(base) + "^" +
                   std::to_string(digits) + ")",
               /*allow_self_edges=*/true);
}

Graph make_petersen() {
  // Outer cycle 0..4, inner pentagram 5..9 (i ~ i+2 mod 5), spokes i ~ i+5.
  const NodeId n = 10;
  const int d = 3;
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId i = 0; i < 5; ++i) {
    NodeId* outer = adj.data() + static_cast<std::size_t>(i) * d;
    outer[0] = (i + 1) % 5;
    outer[1] = (i + 4) % 5;
    outer[2] = i + 5;
    NodeId* inner = adj.data() + static_cast<std::size_t>(i + 5) * d;
    inner[0] = 5 + (i + 2) % 5;
    inner[1] = 5 + (i + 3) % 5;
    inner[2] = i;
  }
  return Graph(n, d, std::move(adj), "petersen");
}

Graph make_complete_bipartite(NodeId r) {
  DLB_REQUIRE(r >= 2, "complete bipartite needs r >= 2");
  const NodeId n = 2 * r;
  const int d = r;
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId u = 0; u < r; ++u) {
    for (NodeId j = 0; j < r; ++j) {
      adj[static_cast<std::size_t>(u) * d + j] = r + j;
      adj[static_cast<std::size_t>(r + u) * d + j] = j;
    }
  }
  return Graph(n, d, std::move(adj),
               "complete_bipartite(" + std::to_string(r) + ")");
}

Graph make_margulis(NodeId m) {
  DLB_REQUIRE(m >= 2, "margulis needs m >= 2");
  DLB_REQUIRE(static_cast<std::int64_t>(m) * m <= (1 << 26),
              "margulis graph too large");
  const NodeId n = m * m;
  const int d = 8;
  auto id = [m](NodeId x, NodeId y) { return y * m + x; };
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (NodeId y = 0; y < m; ++y) {
    for (NodeId x = 0; x < m; ++x) {
      NodeId* row = adj.data() + static_cast<std::size_t>(id(x, y)) * d;
      row[0] = id((x + y) % m, y);               // T1
      row[1] = id((x - y + m) % m, y);           // T1⁻¹
      row[2] = id(x, (y + x) % m);               // T2
      row[3] = id(x, (y - x + m) % m);           // T2⁻¹
      row[4] = id((x + y + 1) % m, y);           // T3
      row[5] = id((x - y - 1 + 2 * m) % m, y);   // T3⁻¹
      row[6] = id(x, (y + x + 1) % m);           // T4
      row[7] = id(x, (y - x - 1 + 2 * m) % m);   // T4⁻¹
    }
  }
  return Graph(n, d, std::move(adj), "margulis(" + std::to_string(m) + ")",
               /*allow_self_edges=*/true);
}

Graph make_random_regular(NodeId n, int d, std::uint64_t seed) {
  DLB_REQUIRE(d >= 1 && d < n, "random_regular needs 1 <= d < n");
  DLB_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0,
              "random_regular needs n*d even");
  Rng rng(seed);
  const std::size_t num_edges = static_cast<std::size_t>(n) * d / 2;

  // Configuration model: pair up stubs, then repair self-edges and
  // parallel edges by random 2-swaps. Rejection alone has vanishing
  // success probability beyond d ≈ 6; repair converges quickly instead.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (NodeId u = 0; u < n; ++u) {
    for (int k = 0; k < d; ++k) stubs.push_back(u);
  }

  for (int attempt = 0; attempt < 64; ++attempt) {
    rng.shuffle(stubs);
    std::vector<std::pair<NodeId, NodeId>> edges(num_edges);
    std::unordered_map<std::uint64_t, int> count;
    count.reserve(num_edges * 2);
    for (std::size_t e = 0; e < num_edges; ++e) {
      edges[e] = {stubs[2 * e], stubs[2 * e + 1]};
      ++count[pair_key(edges[e].first, edges[e].second)];
    }

    auto is_bad = [&](std::size_t e) {
      const auto& [a, b] = edges[e];
      return a == b || count[pair_key(a, b)] > 1;
    };

    // Repair loop: pick a bad edge and a random partner edge; swap one
    // endpoint of each if the two replacement edges are simple and fresh.
    bool success = false;
    const std::size_t max_repair = 200 * num_edges + 1000;
    std::size_t repairs = 0;
    for (; repairs < max_repair; ++repairs) {
      std::size_t bad = num_edges;
      for (std::size_t e = 0; e < num_edges; ++e) {
        if (is_bad(e)) {
          bad = e;
          break;
        }
      }
      if (bad == num_edges) {
        success = true;
        break;
      }
      const std::size_t j = static_cast<std::size_t>(rng.uniform_u64(num_edges));
      if (j == bad) continue;
      const auto [a, b] = edges[bad];
      const auto [c, e2] = edges[j];
      // Proposed replacements: (a, e2) and (c, b).
      if (a == e2 || c == b) continue;
      const std::uint64_t k1 = pair_key(a, e2);
      const std::uint64_t k2 = pair_key(c, b);
      // After removing the two old edges, both new pairs must be unused.
      auto future_count = [&](std::uint64_t k) {
        int cnt = 0;
        auto it = count.find(k);
        if (it != count.end()) cnt = it->second;
        if (k == pair_key(a, b)) --cnt;
        if (k == pair_key(c, e2)) --cnt;
        return cnt;
      };
      if (future_count(k1) > 0 || future_count(k2) > 0) continue;
      if (k1 == k2) continue;  // would create a parallel pair
      --count[pair_key(a, b)];
      --count[pair_key(c, e2)];
      ++count[k1];
      ++count[k2];
      edges[bad] = {a, e2};
      edges[j] = {c, b};
    }
    if (!success) continue;

    std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
    std::vector<int> fill(static_cast<std::size_t>(n), 0);
    for (const auto& [a, b] : edges) {
      adj[static_cast<std::size_t>(a) * d + fill[static_cast<std::size_t>(a)]++] = b;
      adj[static_cast<std::size_t>(b) * d + fill[static_cast<std::size_t>(b)]++] = a;
    }
    return Graph(n, d, std::move(adj),
                 "random_regular(" + std::to_string(n) + "," +
                     std::to_string(d) + ")");
  }
  DLB_REQUIRE(false, "random_regular: repair failed after 64 attempts");
  // Unreachable; silences missing-return warnings.
  throw invariant_error("unreachable");
}

}  // namespace dlb
