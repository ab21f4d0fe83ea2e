// Tests for the SweepRunner subsystem: scenario-matrix coverage, the
// self-loop clamp, registry-backed balancer cases, and — the load-bearing
// property — bit-identical aggregation across worker-pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <tuple>
#include <vector>

#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"

namespace dlb {
namespace {

SweepMatrix small_matrix() {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(24), 1.0 - lambda2_cycle(24, 2));
  m.add_graph("torus", make_torus2d(4, 4), 1.0 - lambda2_torus({4, 4}, 4));
  m.add_balancer(Algorithm::kRotorRouter);
  m.add_balancer(Algorithm::kRandomizedExtra);  // exercises seeded RNG state
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_shape(InitialShape::kRandom);
  m.add_load_scale(64);
  m.add_seed(1);
  m.add_seed(2);
  return m;
}

SweepOptions fast_options(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.base.time_multiplier = 0.25;  // keep runtimes test-sized
  o.base.run_continuous = false;
  return o;
}

// ------------------------------------------------------ initial shapes --

TEST(InitialShape, NamesAreStable) {
  EXPECT_EQ(initial_shape_name(InitialShape::kPointMass), "point-mass");
  EXPECT_EQ(initial_shape_name(InitialShape::kBimodal), "bimodal");
  EXPECT_EQ(initial_shape_name(InitialShape::kRandom), "random");
}

TEST(InitialShape, MakeInitialMatchesGenerators) {
  EXPECT_EQ(make_initial(InitialShape::kPointMass, 8, 10, 0),
            point_mass_initial(8, 80));
  EXPECT_EQ(make_initial(InitialShape::kBimodal, 8, 10, 0),
            bimodal_initial(8, 10));
  EXPECT_EQ(make_initial(InitialShape::kRandom, 8, 10, 42),
            random_initial(8, 10, 42));
  // The random shape is a pure function of (n, k, seed).
  EXPECT_EQ(make_initial(InitialShape::kRandom, 8, 10, 42),
            make_initial(InitialShape::kRandom, 8, 10, 42));
}

// ------------------------------------------------------ matrix coverage --

TEST(SweepMatrix, SizeIsTheCrossProduct) {
  const SweepMatrix m = small_matrix();
  EXPECT_EQ(m.size(), 2u * 3u * 2u * 1u * 1u * 2u);
  EXPECT_EQ(m.scenarios().size(), m.size());
}

TEST(SweepMatrix, EnumeratesEveryCombinationExactlyOnce) {
  const SweepMatrix m = small_matrix();
  using Key = std::tuple<std::size_t, std::size_t, std::size_t, Load,
                         std::uint64_t>;
  std::set<Key> seen;
  std::size_t expected_index = 0;
  for (const Scenario& s : m.scenarios()) {
    EXPECT_EQ(s.index, expected_index++);  // deterministic ordering
    EXPECT_TRUE(seen.emplace(s.graph_index, s.balancer_index, s.shape_index,
                             s.load_scale, s.seed)
                    .second)
        << "duplicate scenario at index " << s.index;
  }
  EXPECT_EQ(seen.size(), m.size());
}

TEST(SweepMatrix, DefaultLoopAndSeedAxesAreReplacedByExplicitEntries) {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(8);
  ASSERT_EQ(m.size(), 1u);  // defaults: d° = d, seed = 0
  EXPECT_EQ(m.scenarios()[0].self_loops, 2);
  EXPECT_EQ(m.scenarios()[0].seed, 0u);

  m.add_seed(7).add_seed(8);
  ASSERT_EQ(m.size(), 2u);  // the default seed 0 is gone
  EXPECT_EQ(m.scenarios()[0].seed, 7u);
  EXPECT_EQ(m.scenarios()[1].seed, 8u);
}

TEST(SweepMatrix, SelfLoopClampFollowsTheRegistryConstraints) {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  m.add_balancer(Algorithm::kSendFloor);        // no constraint
  m.add_balancer(Algorithm::kSendRound);        // wants d° >= d
  m.add_balancer(Algorithm::kRotorRouterStar);  // pins d° = d
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(8);
  m.add_self_loops(0);
  m.add_self_loops(5);

  std::vector<int> effective;
  for (const Scenario& s : m.scenarios()) effective.push_back(s.self_loops);
  // Order: balancer outer, self-loop entry inner; degree d = 2.
  EXPECT_EQ(effective, (std::vector<int>{0, 5,    // SEND(floor): as requested
                                         2, 5,    // SEND(nearest): >= d
                                         2, 2})); // ROTOR-ROUTER*: exactly d
}

// ------------------------------------------------------------ registry --

TEST(Registry, TableOneAlgorithmsArePreRegistered) {
  const std::vector<std::string> names = registered_balancer_names();
  for (Algorithm a : all_algorithms()) {
    EXPECT_TRUE(balancer_registered(algorithm_name(a)));
    auto balancer = find_balancer_factory(algorithm_name(a))(1);
    ASSERT_NE(balancer, nullptr);
    EXPECT_EQ(balancer->name(), algorithm_name(a));
  }
  EXPECT_GE(names.size(), all_algorithms().size());
}

TEST(Registry, FactoryRoundTripReportsAConsistentEngineContract) {
  // Audit of every registered balancer (Table-1 and custom): two
  // instances from the same factory must agree on the engine-facing
  // contract — parallel_decide_safe() decides whether dynamic/parallel
  // rounds may fan the decide phase out, allows_negative() whether
  // oversends are legal — and the contract must be stable across
  // reset(). The
  // golden serial≡parallel gate in test_golden_equivalence.cpp then
  // auto-covers behavioral equivalence for every registration.
  const Graph g = make_cycle(8);
  for (const std::string& name : registered_balancer_names()) {
    const BalancerFactory factory = find_balancer_factory(name);
    const BalancerTraits traits = find_balancer_traits(name);
    auto a = factory(42);
    auto b = factory(42);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->name(), b->name()) << name;
    EXPECT_EQ(a->parallel_decide_safe(), b->parallel_decide_safe()) << name;
    EXPECT_EQ(a->allows_negative(), b->allows_negative()) << name;

    const bool safe_before = a->parallel_decide_safe();
    const bool negative_before = a->allows_negative();
    const int d_loops =
        traits.exact_d_loops ? g.degree()
                             : std::max(0, traits.min_loops(g.degree()));
    a->reset(g, d_loops);
    EXPECT_EQ(a->parallel_decide_safe(), safe_before) << name;
    EXPECT_EQ(a->allows_negative(), negative_before) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(find_balancer_factory("NO-SUCH-SCHEME"), invariant_error);
  EXPECT_THROW(find_balancer_traits("NO-SUCH-SCHEME"), invariant_error);
  EXPECT_THROW(balancer_case("NO-SUCH-SCHEME"), invariant_error);
  EXPECT_FALSE(balancer_registered("NO-SUCH-SCHEME"));
}

TEST(Registry, CustomBalancerIsSweepable) {
  register_balancer("TEST-SEND-FLOOR",
                    [](std::uint64_t) { return std::make_unique<SendFloor>(); });
  ASSERT_TRUE(balancer_registered("TEST-SEND-FLOOR"));

  SweepMatrix m;
  m.add_graph("cycle", make_cycle(12), 1.0 - lambda2_cycle(12, 2));
  m.add_balancer(balancer_case("TEST-SEND-FLOOR"));
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(12);

  const auto rows = SweepRunner(fast_options(1)).run(m);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].balancer, "TEST-SEND-FLOOR");
  EXPECT_EQ(rows[0].result.algorithm, "SEND(floor)");
}

// ---------------------------------------------------------- determinism --

TEST(SweepRunner, EightThreadsMatchSequentialByteForByte) {
  const SweepMatrix m = small_matrix();
  const auto sequential = SweepRunner(fast_options(1)).run(m);
  const auto parallel = SweepRunner(fast_options(8)).run(m);

  ASSERT_EQ(sequential.size(), parallel.size());
  EXPECT_EQ(SweepRunner::csv_string(sequential),
            SweepRunner::csv_string(parallel));
}

/// Three scenarios on a 2^15-node cycle, the smallest graph on which
/// SweepRunner nests round-parallel engines, with a short fixed horizon.
SweepMatrix nesting_matrix() {
  constexpr NodeId kN = 1 << 15;
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(kN), 1.0 - lambda2_cycle(kN, 2));
  m.add_balancer(Algorithm::kRotorRouter);
  m.add_balancer(Algorithm::kRandomizedExtra);  // exercises seeded RNG state
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(64);
  return m;
}

SweepOptions nesting_options(int threads) {
  SweepOptions o = fast_options(threads);
  o.base.fixed_horizon = 12;
  return o;
}

TEST(SweepRunner, InnerNestingMatchesOuterByteForByte) {
  // One big scenario at 8 threads runs inner (round-parallel on the
  // whole pool); at 1 thread it runs serially. The rows must match.
  const SweepMatrix m = nesting_matrix();
  const std::vector<Scenario> one(1, m.scenarios().front());
  EXPECT_EQ(
      SweepRunner::csv_string(SweepRunner(nesting_options(1)).run(m, one)),
      SweepRunner::csv_string(SweepRunner(nesting_options(8)).run(m, one)));
}

TEST(SweepRunner, AutoNestingStaysDeterministicWithFewScenarios) {
  // 1 scenario, 8 threads: whatever the nesting rule picks (it stays
  // outer/serial for this tiny graph — inner needs >= 2^15 nodes to
  // amortize the per-step pool rendezvous), the rows must match a serial
  // run.
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(24), 1.0 - lambda2_cycle(24, 2));
  m.add_balancer(Algorithm::kRotorRouter);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(64);
  const auto serial = SweepRunner(fast_options(1)).run(m);
  const auto auto8 = SweepRunner(fast_options(8)).run(m);
  EXPECT_EQ(SweepRunner::csv_string(serial), SweepRunner::csv_string(auto8));
}

TEST(SweepRunner, HybridNestingMatchesSerialByteForByte) {
  // 3 big scenarios, 8 threads: hybrid splits the budget into 3 outer
  // workers × a 2-wide inner pool each. The CSV must be byte-identical
  // to the serial run — the engines' round-parallel pipeline is
  // thread-count-invariant and aggregation is by scenario index, so
  // neither level of nesting may show.
  const SweepMatrix m = nesting_matrix();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(SweepRunner::csv_string(SweepRunner(nesting_options(1)).run(m)),
            SweepRunner::csv_string(SweepRunner(nesting_options(8)).run(m)));
}

TEST(SweepMatrix, CustomShapeCaseDrivesTheInitialLoads) {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(ShapeCase{"two-spikes", [](const Graph& g, Load k,
                                         std::uint64_t) {
                LoadVector x(static_cast<std::size_t>(g.num_nodes()), 0);
                x.front() = k;
                x.back() = k;
                return x;
              }});
  m.add_load_scale(40);
  SweepOptions o = fast_options(1);
  o.base.record_final_loads = true;
  const auto rows = SweepRunner(o).run(m);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].shape, "two-spikes");
  EXPECT_EQ(rows[0].result.initial_discrepancy, 40);
  EXPECT_EQ(total_load(rows[0].result.final_loads), 80);
  // The shape name flows into the CSV verbatim.
  EXPECT_NE(SweepRunner::csv_string(rows).find("two-spikes"),
            std::string::npos);
}

TEST(SweepRunner, AdjustSpecPairsPerScenarioParameters) {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(12), 1.0 - lambda2_cycle(12, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(24);
  m.add_seed(1).add_seed(2);
  SweepOptions o = fast_options(2);
  o.adjust_spec = [](const Scenario& s, ExperimentSpec& spec) {
    spec.fixed_horizon = s.seed == 1 ? 3 : 5;  // per-scenario horizon
  };
  const auto rows = SweepRunner(o).run(m);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].result.horizon, 3);
  EXPECT_EQ(rows[1].result.horizon, 5);
}

TEST(SweepRunner, RepeatedRunsAreIdentical) {
  const SweepMatrix m = small_matrix();
  const SweepRunner runner(fast_options(4));
  EXPECT_EQ(SweepRunner::csv_string(runner.run(m)),
            SweepRunner::csv_string(runner.run(m)));
}

TEST(SweepRunner, RowsComeBackInScenarioOrder) {
  const SweepMatrix m = small_matrix();
  const auto rows = SweepRunner(fast_options(8)).run(m);
  ASSERT_EQ(rows.size(), m.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].scenario_index, i);
    EXPECT_EQ(rows[i].seed, rows[i].result.seed);  // seed echoed through
  }
}

TEST(SweepRunner, SubsetRunPreservesListOrder) {
  const SweepMatrix m = small_matrix();
  std::vector<Scenario> subset;
  for (const Scenario& s : m.scenarios()) {
    if (s.index % 3 == 0) subset.push_back(s);
  }
  const auto rows = SweepRunner(fast_options(8)).run(m, subset);
  ASSERT_EQ(rows.size(), subset.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].scenario_index, subset[i].index);
  }
}

TEST(SweepRunner, OnResultSeesEveryScenario) {
  const SweepMatrix m = small_matrix();
  SweepOptions options = fast_options(8);
  std::atomic<int> calls{0};
  options.on_result = [&](const SweepRow&) { ++calls; };
  const auto rows = SweepRunner(options).run(m);
  EXPECT_EQ(static_cast<std::size_t>(calls.load()), rows.size());
}

TEST(SweepRunner, WorkerExceptionsPropagate) {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  BalancerCase broken;
  broken.name = "BROKEN";
  broken.factory = [](std::uint64_t) -> std::unique_ptr<Balancer> {
    throw invariant_error("factory exploded");
  };
  broken.adjust_self_loops = [](int, int requested) { return requested; };
  m.add_balancer(broken);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(8);
  EXPECT_THROW(SweepRunner(fast_options(4)).run(m), invariant_error);
}

TEST(SweepRunner, CsvHasHeaderAndOneLinePerScenario) {
  const SweepMatrix m = small_matrix();
  const auto rows = SweepRunner(fast_options(8)).run(m);
  const std::string csv = SweepRunner::csv_string(rows);
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, rows.size() + 1);
  EXPECT_EQ(csv.rfind("scenario,family,graph,", 0), 0u);
}

}  // namespace
}  // namespace dlb
