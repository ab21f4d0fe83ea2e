// Unit tests for graph construction, generators, and structural
// properties (diameter, odd girth, bipartiteness).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "graph/topology.hpp"
#include "util/assertions.hpp"

namespace dlb {
namespace {

/// Out-neighbours of u in port order.
std::vector<NodeId> neighbors_of(const Graph& g, NodeId u) {
  std::vector<NodeId> nb(static_cast<std::size_t>(g.degree()));
  for (int p = 0; p < g.degree(); ++p) {
    nb[static_cast<std::size_t>(p)] = g.neighbor(u, p);
  }
  return nb;
}

// -------------------------------------------------------- construction --

TEST(Graph, RejectsAsymmetricEdgeMultiset) {
  // 0->1, 1->2, 2->0 directed triangle is not symmetric.
  EXPECT_THROW(Graph(3, 1, {1, 2, 0}), invariant_error);
}

TEST(Graph, RejectsSelfEdges) {
  EXPECT_THROW(Graph(2, 2, {0, 1, 0, 1}), invariant_error);
}

TEST(Graph, RejectsOutOfRangeNeighbors) {
  EXPECT_THROW(Graph(2, 1, {1, 5}), invariant_error);
}

TEST(Graph, RejectsWrongAdjacencySize) {
  EXPECT_THROW(Graph(3, 2, {1, 2, 0}), invariant_error);
}

TEST(Graph, ReversePortInvolutionOnTriangle) {
  // Symmetric triangle, d = 2.
  const Graph g(3, 2, {1, 2, 0, 2, 1, 0});
  EXPECT_EQ(verify_regular_symmetric(g), 2);
}

TEST(Graph, ParallelEdgesPairedConsistently) {
  // Two nodes joined by two parallel edges (d = 2 multigraph).
  const Graph g(2, 2, {1, 1, 0, 0});
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_EQ(verify_regular_symmetric(g), 2);
}

// ---------------------------------------------------------- generators --

TEST(Generators, CycleStructure) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.degree(), 2);
  EXPECT_EQ(g.neighbor(0, 0), 1);
  EXPECT_EQ(g.neighbor(0, 1), 6);
  EXPECT_EQ(verify_regular_symmetric(g), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleTooSmallThrows) {
  EXPECT_THROW(make_cycle(2), invariant_error);
}

TEST(Generators, Torus2dStructure) {
  const Graph g = make_torus2d(4, 5);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(g.has_parallel_edges());
}

TEST(Generators, Torus3dStructure) {
  const Graph g = make_torus({3, 4, 5});
  EXPECT_EQ(g.num_nodes(), 60);
  EXPECT_EQ(g.degree(), 6);
  EXPECT_EQ(verify_regular_symmetric(g), 6);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, HypercubeStructure) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
  // Neighbors differ in exactly one bit.
  for (NodeId u = 0; u < 16; ++u) {
    for (NodeId v : neighbors_of(g, u)) {
      EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(u ^ v)), 1);
    }
  }
}

TEST(Generators, CompleteStructure) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.degree(), 5);
  EXPECT_EQ(verify_regular_symmetric(g), 5);
  for (NodeId u = 0; u < 6; ++u) {
    const std::vector<NodeId> all = neighbors_of(g, u);
    const std::set<NodeId> nb(all.begin(), all.end());
    EXPECT_EQ(nb.size(), 5u);
    EXPECT_EQ(nb.count(u), 0u);
  }
}

TEST(Generators, CirculantStructure) {
  const Graph g = make_circulant(10, {1, 3});
  EXPECT_EQ(g.degree(), 4);
  EXPECT_EQ(verify_regular_symmetric(g), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CirculantDiametralOffsetGivesSingleEdge) {
  const Graph g = make_circulant(10, {1, 5});
  EXPECT_EQ(g.degree(), 3);  // offset 5 == n/2 contributes one edge
  EXPECT_EQ(verify_regular_symmetric(g), 3);
}

TEST(Generators, CirculantRejectsBadOffsets) {
  EXPECT_THROW(make_circulant(10, {0}), invariant_error);
  EXPECT_THROW(make_circulant(10, {6}), invariant_error);
  EXPECT_THROW(make_circulant(10, {2, 2}), invariant_error);
}

TEST(Generators, CliqueCirculantHasClique) {
  const Graph g = make_clique_circulant(32, 8);
  EXPECT_EQ(g.degree(), 8);
  EXPECT_EQ(verify_regular_symmetric(g), 8);
  // First ⌊d/2⌋ = 4 nodes form a clique.
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u == v) continue;
      const std::vector<NodeId> nb = neighbors_of(g, u);
      EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end())
          << u << " not adjacent to " << v;
    }
  }
}

TEST(Generators, CliqueCirculantOddDegreeNeedsEvenN) {
  EXPECT_NO_THROW(make_clique_circulant(32, 5));
  EXPECT_THROW(make_clique_circulant(31, 5), invariant_error);
}

class RandomRegularTest
    : public ::testing::TestWithParam<std::tuple<NodeId, int>> {};

TEST_P(RandomRegularTest, ProducesSimpleRegularConnectedGraph) {
  const auto [n, d] = GetParam();
  const Graph g = make_random_regular(n, d, /*seed=*/99);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.degree(), d);
  EXPECT_EQ(verify_regular_symmetric(g), d);
  EXPECT_FALSE(g.has_parallel_edges());
  // No self-edges is enforced by the Graph constructor; also check
  // distinct neighbors (simple graph).
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<NodeId> all = neighbors_of(g, u);
    const std::set<NodeId> nb(all.begin(), all.end());
    EXPECT_EQ(nb.size(), static_cast<std::size_t>(d));
  }
  EXPECT_TRUE(is_connected(g));  // holds w.h.p.; seed fixed so it's stable
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegularTest,
    ::testing::Values(std::make_tuple(16, 3), std::make_tuple(64, 4),
                      std::make_tuple(128, 8), std::make_tuple(256, 16),
                      std::make_tuple(100, 5)));

TEST(Generators, RandomRegularDeterministicInSeed) {
  const Graph a = make_random_regular(64, 6, 1234);
  const Graph b = make_random_regular(64, 6, 1234);
  for (NodeId u = 0; u < 64; ++u) {
    EXPECT_EQ(neighbors_of(a, u), neighbors_of(b, u));
  }
}

TEST(Generators, RandomRegularRejectsOddTotalDegree) {
  EXPECT_THROW(make_random_regular(5, 3, 1), invariant_error);
}

// ---------------------------------------------------- implicit topology --

// Reference port tables for the structured families, written out from
// the families' definitions with plain division and modulo, independently
// of the topology traits. Run through the table constructor, they give
// generic graphs whose adjacency, reverse ports and parallel-edge flag
// the formulas must reproduce entry by entry.

std::vector<NodeId> cycle_table(NodeId n) {
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * 2);
  for (NodeId i = 0; i < n; ++i) {
    adj[static_cast<std::size_t>(i) * 2 + 0] = (i + 1) % n;
    adj[static_cast<std::size_t>(i) * 2 + 1] = (i + n - 1) % n;
  }
  return adj;
}

std::vector<NodeId> torus_table(const std::vector<NodeId>& extents) {
  const int r = static_cast<int>(extents.size());
  const int d = 2 * r;
  std::vector<std::int64_t> stride(extents.size());
  std::int64_t n = 1;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    stride[k] = n;
    n *= extents[k];
  }
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * d);
  for (std::int64_t u = 0; u < n; ++u) {
    for (int k = 0; k < r; ++k) {
      const std::int64_t ext = extents[static_cast<std::size_t>(k)];
      const std::int64_t s = stride[static_cast<std::size_t>(k)];
      const std::int64_t coord = (u / s) % ext;
      const std::int64_t base = u - coord * s;
      adj[static_cast<std::size_t>(u * d + 2 * k + 0)] =
          static_cast<NodeId>(base + ((coord + 1) % ext) * s);
      adj[static_cast<std::size_t>(u * d + 2 * k + 1)] =
          static_cast<NodeId>(base + ((coord + ext - 1) % ext) * s);
    }
  }
  return adj;
}

std::vector<NodeId> hypercube_table(int dim) {
  const NodeId n = NodeId{1} << dim;
  std::vector<NodeId> adj(static_cast<std::size_t>(n) * dim);
  for (NodeId u = 0; u < n; ++u) {
    for (int k = 0; k < dim; ++k) {
      adj[static_cast<std::size_t>(u) * dim + k] = u ^ (NodeId{1} << k);
    }
  }
  return adj;
}

/// Entry-by-entry comparison of `g` against the reference graph `ref`:
/// neighbor, rev_port and has_parallel_edges through the Graph
/// accessors, and — through with_topology — the trait's random-access
/// calls and its ascending-sweep cursor.
void expect_matches_reference(const Graph& g, const Graph& ref) {
  ASSERT_EQ(g.num_nodes(), ref.num_nodes()) << g.name();
  ASSERT_EQ(g.degree(), ref.degree()) << g.name();
  EXPECT_EQ(g.has_parallel_edges(), ref.has_parallel_edges()) << g.name();
  with_topology(g, [&](const auto& topo) {
    ASSERT_EQ(topo.degree(), ref.degree()) << g.name();
    auto cur = topo.cursor(0);
    for (NodeId u = 0; u < ref.num_nodes(); ++u, cur.advance()) {
      for (int p = 0; p < ref.degree(); ++p) {
        const NodeId v = ref.neighbor(u, p);
        const int q = ref.rev_port(u, p);
        ASSERT_EQ(g.neighbor(u, p), v) << g.name() << " node " << u
                                       << " port " << p;
        ASSERT_EQ(g.rev_port(u, p), q) << g.name() << " node " << u
                                       << " port " << p;
        ASSERT_EQ(topo.neighbor(u, p), v) << g.name() << " node " << u;
        ASSERT_EQ(topo.rev_port(u, p), q) << g.name() << " node " << u;
        ASSERT_EQ(cur.neighbor(p), v) << g.name() << " cursor at " << u;
        ASSERT_EQ(cur.rev_port(p), q) << g.name() << " cursor at " << u;
      }
    }
  });
}

/// A cursor started at every node of `g` and swept to n matches `ref`: a
/// start mid-row or at a row end must see what a sweep from node 0 sees.
void expect_cursor_matches_from_every_node(const Graph& g, const Graph& ref) {
  with_topology(g, [&](const auto& topo) {
    for (NodeId start = 0; start < ref.num_nodes(); ++start) {
      auto cur = topo.cursor(start);
      for (NodeId u = start; u < ref.num_nodes(); ++u, cur.advance()) {
        for (int p = 0; p < ref.degree(); ++p) {
          ASSERT_EQ(cur.neighbor(p), ref.neighbor(u, p))
              << g.name() << " cursor from " << start << " at node " << u
              << " port " << p;
          ASSERT_EQ(cur.rev_port(p), ref.rev_port(u, p))
              << g.name() << " cursor from " << start << " at node " << u
              << " port " << p;
        }
      }
    }
  });
}

/// `g` is a table-free structured graph of `kind` that matches `ref`,
/// and so does its generic without_structure() copy.
void expect_formula_matches(const Graph& g, GraphStructure kind,
                            const Graph& ref) {
  EXPECT_EQ(g.structure().kind, kind) << g.name();
  expect_matches_reference(g, ref);
  const Graph generic = g.without_structure();
  EXPECT_EQ(generic.structure().kind, GraphStructure::kGeneric) << g.name();
  EXPECT_EQ(generic.name(), g.name());
  expect_matches_reference(generic, ref);
}

TEST(Topology, FormulasMatchReferenceTablesExhaustively) {
  for (NodeId n = 3; n <= 40; ++n) {
    expect_formula_matches(make_cycle(n), GraphStructure::kCycle,
                           Graph(n, 2, cycle_table(n)));
  }
  for (const std::vector<NodeId>& extents :
       {std::vector<NodeId>{3, 3}, {3, 4, 5}, {4, 3, 3, 3}, {7}}) {
    const Graph g = make_torus(extents);
    EXPECT_EQ(g.structure().extents, extents) << g.name();
    const Graph ref(g.num_nodes(), g.degree(), torus_table(extents));
    expect_cursor_matches_from_every_node(g, ref);
    expect_formula_matches(g, GraphStructure::kTorus, ref);
  }
  for (int dim = 1; dim <= 10; ++dim) {
    expect_formula_matches(make_hypercube(dim), GraphStructure::kHypercube,
                           Graph(NodeId{1} << dim, dim, hypercube_table(dim)));
  }
}

TEST(Topology, GeneratorNamesAndTorus2dLayout) {
  EXPECT_EQ(make_cycle(5).name(), "cycle(5)");
  EXPECT_EQ(make_torus({3, 4, 5}).name(), "torus(3x4x5)");
  EXPECT_EQ(make_hypercube(3).name(), "hypercube(3)");
  const Graph g = make_torus2d(4, 5);
  EXPECT_EQ(g.name(), "torus(4x5)");
  expect_matches_reference(g, Graph(20, 4, torus_table({4, 5})));
}

TEST(Topology, UntaggedGeneratorsStayGeneric) {
  EXPECT_EQ(make_complete(5).structure().kind, GraphStructure::kGeneric);
  EXPECT_EQ(make_petersen().structure().kind, GraphStructure::kGeneric);
  EXPECT_EQ(make_circulant(10, {1, 2}).structure().kind,
            GraphStructure::kGeneric);
  // without_structure() of a generic graph is the graph itself.
  const Graph p = make_petersen();
  expect_matches_reference(p.without_structure(), p);
}

TEST(Topology, ImplicitRejectsTagsThatDoNotFitTheShape) {
  const auto implicit = [](NodeId n, int d, StructureInfo s) {
    return Graph::implicit(n, d, "bogus", std::move(s));
  };
  // No family at all.
  EXPECT_THROW(implicit(6, 2, {GraphStructure::kGeneric, {}}),
               invariant_error);
  // Hypercube: n must be 2^d.
  EXPECT_THROW(implicit(6, 2, {GraphStructure::kHypercube, {}}),
               invariant_error);
  EXPECT_NO_THROW(implicit(4, 2, {GraphStructure::kHypercube, {}}));
  // Cycle: d == 2, n >= 3, no extents.
  EXPECT_THROW(implicit(6, 3, {GraphStructure::kCycle, {}}), invariant_error);
  EXPECT_THROW(implicit(2, 2, {GraphStructure::kCycle, {}}), invariant_error);
  EXPECT_THROW(implicit(6, 2, {GraphStructure::kCycle, {6}}),
               invariant_error);
  // Torus: extents >= 3 that multiply to n, d == 2r.
  EXPECT_THROW(implicit(6, 2, {GraphStructure::kTorus, {3, 3}}),
               invariant_error);
  EXPECT_THROW(implicit(9, 2, {GraphStructure::kTorus, {3, 3}}),
               invariant_error);
  EXPECT_THROW(implicit(4, 4, {GraphStructure::kTorus, {2, 2}}),
               invariant_error);
  EXPECT_THROW(implicit(6, 2, {GraphStructure::kTorus, {}}), invariant_error);
  EXPECT_NO_THROW(implicit(9, 4, {GraphStructure::kTorus, {3, 3}}));
  // Non-positive sizes.
  EXPECT_THROW(implicit(0, 2, {GraphStructure::kCycle, {}}), invariant_error);
}

TEST(Topology, FastDivU32MatchesHardwareDivision) {
  for (std::uint32_t d : {1u, 2u, 3u, 5u, 7u, 12u, 100u, 1023u, 1024u,
                          1025u, 999983u, (1u << 26)}) {
    const FastDivU32 fd(d);
    for (std::uint32_t x : {0u, 1u, d - 1, d, d + 1, 2 * d, 12345u,
                            (1u << 20), (1u << 26) - 1, 0x7fffffffu,
                            0xffffffffu}) {
      EXPECT_EQ(fd.quot(x), x / d) << x << " / " << d;
    }
  }
}

// ---------------------------------------------------------- properties --

TEST(Properties, BfsDistancesOnCycle) {
  const Graph g = make_cycle(8);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[4], 4);
  EXPECT_EQ(dist[7], 1);
}

TEST(Properties, DiameterOfKnownFamilies) {
  EXPECT_EQ(diameter(make_cycle(9)), 4);
  EXPECT_EQ(diameter(make_cycle(10)), 5);
  EXPECT_EQ(diameter(make_hypercube(5)), 5);
  EXPECT_EQ(diameter(make_torus2d(4, 4)), 4);
  EXPECT_EQ(diameter(make_complete(7)), 1);
}

TEST(Properties, BipartitenessOfKnownFamilies) {
  EXPECT_TRUE(is_bipartite(make_cycle(8)));
  EXPECT_FALSE(is_bipartite(make_cycle(9)));
  EXPECT_TRUE(is_bipartite(make_hypercube(4)));
  EXPECT_FALSE(is_bipartite(make_complete(3)));
}

TEST(Properties, OddGirthOfKnownFamilies) {
  EXPECT_FALSE(odd_girth(make_cycle(8)).has_value());
  EXPECT_EQ(odd_girth(make_cycle(9)).value(), 9);
  EXPECT_EQ(odd_girth_phi(make_cycle(9)).value(), 4);
  EXPECT_EQ(odd_girth(make_complete(5)).value(), 3);
  EXPECT_FALSE(odd_girth(make_hypercube(3)).has_value());
}

TEST(Properties, OddGirthOfCirculant) {
  // circulant(12, {2}) is two disjoint 6-cycles — disconnected and even;
  // circulant(12, {1, 2}) contains triangles (0-1-2-0 via offsets 1,1,2).
  EXPECT_EQ(odd_girth(make_circulant(12, {1, 2})).value(), 3);
}

TEST(Properties, EccentricityMatchesDiameterOnVertexTransitive) {
  const Graph g = make_cycle(11);
  EXPECT_EQ(eccentricity(g, 0), 5);
  EXPECT_EQ(eccentricity(g, 7), 5);
}

class DiameterParamTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(DiameterParamTest, CycleDiameterFormula) {
  const NodeId n = GetParam();
  EXPECT_EQ(diameter(make_cycle(n)), n / 2);
}

INSTANTIATE_TEST_SUITE_P(Cycles, DiameterParamTest,
                         ::testing::Values<NodeId>(3, 4, 5, 8, 13, 20, 33));

}  // namespace
}  // namespace dlb
