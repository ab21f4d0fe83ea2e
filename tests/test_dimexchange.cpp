// Tests for the dimension-exchange (matching model) substrate: matching
// generators, the pairwise-balancing engine, and the constant-discrepancy
// behaviour the paper's related-work section cites ([10], [18]).
#include <gtest/gtest.h>

#include <set>

#include "analysis/experiment.hpp"
#include "dimexchange/de_engine.hpp"
#include "dimexchange/matching.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ----------------------------------------------------------- matchings --

TEST(Matching, HypercubeCircuitIsPerfectPerDimension) {
  const int dim = 4;
  const Graph g = make_hypercube(dim);
  const auto circuit = hypercube_dimension_circuit(dim);
  ASSERT_EQ(circuit.size(), 4u);
  for (const auto& m : circuit) {
    EXPECT_EQ(m.size(), 8u);  // perfect matching on 16 nodes
    validate_matching(g, m);
  }
  // Every edge of the hypercube appears in exactly one matching.
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& m : circuit) {
    for (const auto& e : m) EXPECT_TRUE(seen.insert(e).second);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(16 * dim / 2));
}

TEST(Matching, EdgeColoringCoversEveryEdgeOnce) {
  const Graph g = make_torus2d(4, 6);
  const auto circuit = edge_coloring_circuit(g);
  EXPECT_LE(circuit.size(), static_cast<std::size_t>(2 * g.degree() - 1));
  std::size_t covered = 0;
  for (const auto& m : circuit) {
    validate_matching(g, m);
    covered += m.size();
  }
  EXPECT_EQ(covered, static_cast<std::size_t>(g.num_directed_edges() / 2));
}

TEST(Matching, EdgeColoringWorksOnOddCycleAndClique) {
  for (const Graph& g : {make_cycle(7), make_complete(6)}) {
    const auto circuit = edge_coloring_circuit(g);
    std::size_t covered = 0;
    for (const auto& m : circuit) {
      validate_matching(g, m);
      covered += m.size();
    }
    EXPECT_EQ(covered, static_cast<std::size_t>(g.num_directed_edges() / 2))
        << g.name();
  }
}

TEST(Matching, RandomMatchingIsValidAndMaximal) {
  const Graph g = make_random_regular(64, 4, 3);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Matching m = random_matching(g, rng);
    validate_matching(g, m);
    // Maximality: no edge with both endpoints free.
    std::vector<char> used(64, 0);
    for (const auto& [u, v] : m) used[u] = used[v] = 1;
    for (NodeId u = 0; u < 64; ++u) {
      if (used[u]) continue;
      for (int p = 0; p < g.degree(); ++p) {
        const NodeId v = g.neighbor(u, p);
        EXPECT_TRUE(used[v]) << "edge (" << u << "," << v << ") unmatched";
      }
    }
  }
}

TEST(Matching, ValidateRejectsBadMatchings) {
  const Graph g = make_cycle(6);
  EXPECT_THROW(validate_matching(g, {{0, 2}}), invariant_error);  // not edge
  EXPECT_THROW(validate_matching(g, {{1, 0}}), invariant_error);  // u >= v
  EXPECT_THROW(validate_matching(g, {{0, 1}, {1, 2}}), invariant_error);
}

// -------------------------------------------------------------- engine --

TEST(DimensionExchange, PairwiseAverageExact) {
  const Graph g = make_cycle(4);
  DimensionExchange de(g, {{{0, 1}}}, DePolicy::kAverageDown, 1,
                       LoadVector{10, 4, 0, 0});
  de.step();
  EXPECT_EQ(de.loads(), (LoadVector{7, 7, 0, 0}));
}

TEST(DimensionExchange, OddTokenStaysWithRicherNode) {
  const Graph g = make_cycle(4);
  DimensionExchange de(g, {{{0, 1}}}, DePolicy::kAverageDown, 1,
                       LoadVector{10, 5, 0, 0});
  de.step();
  EXPECT_EQ(de.loads(), (LoadVector{8, 7, 0, 0}));
}

TEST(DimensionExchange, ConservesTokens) {
  const Graph g = make_hypercube(5);
  DimensionExchange de(g, hypercube_dimension_circuit(5),
                       DePolicy::kAverageDown, 1,
                       random_initial(32, 100, 7));
  const Load total = de.total();
  de.run(200);
  EXPECT_EQ(total_load(de.loads()), total);
}

TEST(DimensionExchange, HypercubeCircuitReachesConstantDiscrepancy) {
  // One full sweep of the dimension circuit from a point mass brings the
  // hypercube to discrepancy O(dim); a few sweeps reach ~constant.
  const int dim = 8;
  const Graph g = make_hypercube(dim);
  DimensionExchange de(g, hypercube_dimension_circuit(dim),
                       DePolicy::kAverageDown, 1,
                       point_mass_initial(g.num_nodes(), 100 * g.num_nodes()));
  de.run(static_cast<Step>(10) * dim);
  EXPECT_LE(de.discrepancy(), dim);
  de.run(static_cast<Step>(40) * dim);
  EXPECT_LE(de.discrepancy(), 2);  // the [18] constant-discrepancy regime
}

TEST(DimensionExchange, RandomMatchingReachesConstantDiscrepancy) {
  const Graph g = make_random_regular(128, 4, 9);
  DimensionExchange de(g, DePolicy::kRandomOrientation, 11,
                       point_mass_initial(128, 12800));
  de.run(3000);
  EXPECT_LE(de.discrepancy(), 3);
}

TEST(DimensionExchange, SerialMatchesIntraRoundParallel) {
  // Both policies and both schedules: the parallel pair-apply (and the
  // serially pre-drawn orientation coins) must reproduce the serial
  // trajectory exactly at any thread count.
  const Graph g = make_hypercube(5);
  const LoadVector initial = random_initial(32, 500, 3);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    for (DePolicy policy :
         {DePolicy::kAverageDown, DePolicy::kRandomOrientation}) {
      DimensionExchange serial(g, hypercube_dimension_circuit(5), policy, 11,
                               initial);
      DimensionExchange parallel(g, hypercube_dimension_circuit(5), policy,
                                 11, initial);
      parallel.set_thread_pool(&pool);
      for (int t = 0; t < 120; ++t) {
        serial.step();
        parallel.step_parallel();
        ASSERT_EQ(serial.loads(), parallel.loads())
            << "policy " << static_cast<int>(policy) << " step " << t;
      }
      DimensionExchange serial_rm(g, policy, 17, initial);
      DimensionExchange parallel_rm(g, policy, 17, initial);
      parallel_rm.set_thread_pool(&pool);
      for (int t = 0; t < 120; ++t) {
        serial_rm.step();
        parallel_rm.step_parallel();
        ASSERT_EQ(serial_rm.loads(), parallel_rm.loads())
            << "random-matching policy " << static_cast<int>(policy)
            << " step " << t;
      }
    }
  }
}

TEST(DimensionExchange, CircuitModeOnTorusViaEdgeColoring) {
  const Graph g = make_torus2d(6, 6);
  DimensionExchange de(g, edge_coloring_circuit(g), DePolicy::kAverageDown,
                       1, bimodal_initial(g.num_nodes(), 500));
  de.run(2000);
  EXPECT_LE(de.discrepancy(), 4);
}

TEST(DimensionExchange, RunUntilDiscrepancyStops) {
  const Graph g = make_hypercube(6);
  DimensionExchange de(g, hypercube_dimension_circuit(6),
                       DePolicy::kAverageDown, 1,
                       point_mass_initial(64, 6400));
  const Step used = de.run_until_discrepancy(6, 10000);
  EXPECT_LT(used, 10000);
  EXPECT_LE(de.discrepancy(), 6);
}

TEST(DimensionExchange, SeedReproducible) {
  const Graph g = make_random_regular(64, 4, 2);
  DimensionExchange a(g, DePolicy::kRandomOrientation, 42,
                      point_mass_initial(64, 6400));
  DimensionExchange b(g, DePolicy::kRandomOrientation, 42,
                      point_mass_initial(64, 6400));
  a.run(500);
  b.run(500);
  EXPECT_EQ(a.loads(), b.loads());
}

TEST(DimensionExchange, BeatsDiffusiveOmegaDFloor) {
  // The cross-model claim from the paper's related work: dimension
  // exchange balances to O(1), below the diffusive model's Ω(d) stateless
  // floor, on the same graph.
  const Graph g = make_random_regular(128, 16, 5);
  DimensionExchange de(g, edge_coloring_circuit(g), DePolicy::kAverageDown,
                       1, point_mass_initial(128, 12800));
  de.run(5000);
  EXPECT_LT(de.discrepancy(), g.degree() / 2);
}

}  // namespace
}  // namespace dlb
