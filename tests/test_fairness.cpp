// Class-membership tests: the auditor verifies, on live runs, that each
// implemented algorithm belongs to the class the paper assigns to it
// (Observations 2.2 and 3.2), and that the deliberate outliers do not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/fixed_priority.hpp"
#include "balancers/randomized_extra.hpp"
#include "balancers/randomized_rounding.hpp"
#include "balancers/registry.hpp"
#include "balancers/rotor_router.hpp"
#include "balancers/rotor_router_star.hpp"
#include "balancers/send_floor.hpp"
#include "balancers/send_round.hpp"
#include "core/fairness.hpp"
#include "core/flow_tracker.hpp"
#include "graph/generators.hpp"
#include "util/intmath.hpp"

namespace dlb {
namespace {

/// Runs `steps` rounds of `balancer` from a rough random initial load and
/// returns the audited fairness report.
FairnessReport audit(const Graph& g, int d_loops, Balancer& balancer,
                     Step steps, std::uint64_t seed = 31) {
  Engine e(g, EngineConfig{.self_loops = d_loops}, balancer,
           random_initial(g.num_nodes(), 50 * g.degree(), seed));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(steps);
  return auditor.report();
}

// ------------------------------------------- Observation 2.2: SEND(...) --

TEST(Fairness, SendFloorIsCumulativelyZeroFair) {
  const Graph g = make_torus2d(5, 5);
  SendFloor b;
  const auto rep = audit(g, g.degree(), b, 400);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_FALSE(rep.negative_seen);
  EXPECT_LT(rep.max_remainder, 2 * g.degree());  // r < d⁺
}

TEST(Fairness, SendRoundIsCumulativelyZeroFair) {
  const Graph g = make_torus2d(5, 5);
  SendRound b;
  const auto rep = audit(g, g.degree(), b, 400);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_FALSE(rep.negative_seen);
}

TEST(Fairness, SendFloorIsNotRoundFairButRespectsFloor) {
  // SendFloor keeps up to d⁺−1 tokens as the remainder — all ports get
  // exactly the floor share, which *is* round-fair.
  const Graph g = make_cycle(9);
  SendFloor b;
  const auto rep = audit(g, 2, b, 300);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_EQ(rep.observed_s, 0);  // never prefers a self-loop
}

// ------------------------------------- Observation 2.2: ROTOR-ROUTER --

class RotorFairnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RotorFairnessTest, RotorRouterIsCumulativelyOneFair) {
  const Graph g = make_hypercube(5);
  RotorRouter b(GetParam());
  const auto rep = audit(g, g.degree(), b, 500, /*seed=*/GetParam() + 7);
  EXPECT_LE(rep.observed_delta, 1);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_FALSE(rep.negative_seen);
  EXPECT_EQ(rep.max_remainder, 0);  // rotor deals out every token
}

INSTANTIATE_TEST_SUITE_P(Seeds, RotorFairnessTest,
                         ::testing::Values<std::uint64_t>(0, 1, 42, 4711));

TEST(Fairness, RotorRouterOneFairOnCycleToo) {
  const Graph g = make_cycle(17);
  RotorRouter b(3);
  const auto rep = audit(g, 2, b, 1000);
  EXPECT_LE(rep.observed_delta, 1);
  EXPECT_TRUE(rep.round_fair);
}

// --------------------------------- Observation 3.2: good s-balancers --

TEST(Fairness, RotorRouterStarIsGoodOneBalancer) {
  const Graph g = make_torus2d(5, 5);
  RotorRouterStar b(11);
  const auto rep = audit(g, g.degree(), b, 600);
  EXPECT_LE(rep.observed_delta, 1);   // cumulatively 1-fair
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_GE(rep.observed_s, 1);       // 1-self-preferring
}

TEST(Fairness, SendRoundIsGoodBalancerForThreeD) {
  // d⁺ = 3d: guaranteed s = ⌈d/2⌉ by the implementation analysis.
  const Graph g = make_torus2d(5, 5);
  const int d = g.degree();
  SendRound b;
  Engine e(g, EngineConfig{.self_loops = 2 * d}, b,
           random_initial(g.num_nodes(), 200, 3));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(600);
  const auto rep = auditor.report();
  EXPECT_TRUE(rep.round_fair);
  EXPECT_EQ(rep.observed_delta, 0);
  EXPECT_GE(rep.observed_s, b.guaranteed_s());
  EXPECT_GE(b.guaranteed_s(), (3 * d - 2 * d + 1) / 2);
}

TEST(Fairness, SendRoundGuaranteedSFormula) {
  const Graph g = make_hypercube(4);  // d = 4
  SendRound b;
  b.reset(g, 4);   // d⁺ = 2d -> s = 0
  EXPECT_EQ(b.guaranteed_s(), 0);
  b.reset(g, 5);   // d⁺ = 2d+1 -> s = ceil(1/2) = 1
  EXPECT_EQ(b.guaranteed_s(), 1);
  b.reset(g, 8);   // d⁺ = 3d -> s = ceil(d/2) = 2
  EXPECT_EQ(b.guaranteed_s(), 2);
}

// ------------------------------------------------- negative controls --

TEST(Fairness, FixedPriorityViolatesCumulativeFairness) {
  // Round-fair ([17]-class) but the cumulative imbalance grows with t.
  const Graph g = make_cycle(16);
  FixedPriority b;
  const auto rep = audit(g, 2, b, 2000);
  EXPECT_TRUE(rep.round_fair);
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_GT(rep.observed_delta, 10);  // unbounded in t; far beyond O(1)
}

TEST(Fairness, FixedPriorityDeltaGrowsWithTime) {
  const Graph g = make_cycle(16);
  FixedPriority b1, b2;
  const auto short_run = audit(g, 2, b1, 200);
  const auto long_run = audit(g, 2, b2, 4000);
  EXPECT_GT(long_run.observed_delta, short_run.observed_delta);
}

TEST(Fairness, RandomizedExtraIsNotRoundFair) {
  const Graph g = make_torus2d(5, 5);
  RandomizedExtra b(99);
  const auto rep = audit(g, g.degree(), b, 500);
  EXPECT_FALSE(rep.round_fair);  // one port can draw several extras
  EXPECT_TRUE(rep.floor_condition_ok);
  EXPECT_FALSE(rep.negative_seen);
}

TEST(Fairness, RandomizedRoundingGoesNegative) {
  // The [18] scheme oversubscribes low-load nodes; with a near-empty
  // initial load negative remainders appear quickly.
  const Graph g = make_torus2d(5, 5);
  RandomizedRounding b(5);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, b,
           point_mass_initial(g.num_nodes(), 40));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  e.run(300);
  EXPECT_TRUE(auditor.report().negative_seen);
  EXPECT_LT(e.min_load_seen(), 0);
}

// ----------------------------------------------------- flow tracker --

TEST(FlowTracker, CumulativeFlowsMatchHandComputation) {
  // Cycle of 3, SendFloor with d° = 1 (d⁺ = 3): node with load 5 sends 1
  // per port each step until loads change.
  const Graph g = make_cycle(3);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 1}, b, LoadVector{5, 5, 5});
  FlowTracker tracker;
  e.add_observer(tracker);
  e.step();
  // Every node: q = ⌊5/3⌋ = 1 per port, remainder 2; loads stay 5.
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(tracker.cumulative(u, 0), 1);
    EXPECT_EQ(tracker.cumulative(u, 1), 1);
    EXPECT_EQ(tracker.cumulative_self_loop(u, 0), 1);
    EXPECT_EQ(tracker.cumulative_out(u), 3);
  }
  e.step();
  EXPECT_EQ(tracker.cumulative(0, 0), 2);
  EXPECT_EQ(tracker.steps_observed(), 2);
  EXPECT_EQ(tracker.max_edge_imbalance(), 0);
}

TEST(FlowTracker, EdgeImbalanceSeesRotorStagger) {
  const Graph g = make_cycle(5);
  RotorRouter b(0);
  Engine e(g, EngineConfig{.self_loops = 2}, b,
           random_initial(g.num_nodes(), 40, 8));
  FlowTracker tracker;
  e.add_observer(tracker);
  e.run(200);
  EXPECT_LE(tracker.max_edge_imbalance(), 1);
}

// ------------------------------------------------- one-pass oracle --

/// The definitions checked port by port: two divisions per node and a
/// branch per port and check. FairnessAuditor's one-pass kernel must
/// produce the same FairnessReport after every round.
class ReferenceAuditor : public StepObserver {
 public:
  void on_step(Step /*t*/, const Graph& g, int d_loops,
               std::span<const Load> pre, std::span<const Load> flows,
               std::span<const Load> /*post*/) override {
    if (!initialized_) {
      n_ = g.num_nodes();
      d_ = g.degree();
      d_loops_ = d_loops;
      cum_.assign(static_cast<std::size_t>(n_) * d_, 0);
      initialized_ = true;
    }
    const int d_plus = d_ + d_loops_;

    for (NodeId u = 0; u < n_; ++u) {
      const Load x = pre[static_cast<std::size_t>(u)];
      const Load* row = flows.data() + static_cast<std::size_t>(u) * d_plus;
      const Load floor_share = floor_div(x, d_plus);
      const Load ceil_share = ceil_div(x, d_plus);
      const Load excess = x - d_plus * floor_share;  // e(u) ∈ [0, d⁺)

      Load sent = 0;
      Load ceil_self_loops = 0;
      for (int p = 0; p < d_plus; ++p) {
        const Load f = row[p];
        sent += f;
        if (f < 0) report_.negative_seen = true;
        if (f < floor_share) report_.floor_condition_ok = false;
        if (f != floor_share && f != ceil_share) report_.round_fair = false;
        if (p >= d_ && excess > 0 && f >= ceil_share) ++ceil_self_loops;
      }

      const Load remainder = x - sent;
      if (remainder < 0) report_.negative_seen = true;
      report_.max_remainder =
          std::max(report_.max_remainder, std::abs(remainder));

      // s-self-preference: the step admits any s with
      // min{s, e(u)} <= ceil_self_loops; when ceil_self_loops >= e(u) every
      // s works, otherwise the largest admissible s is ceil_self_loops.
      if (excess > 0 && ceil_self_loops < excess) {
        report_.observed_s = std::min(report_.observed_s, ceil_self_loops);
      }

      // Cumulative imbalance over the original edges (Definition 2.1 (ii)).
      Load* cum_row = cum_.data() + static_cast<std::size_t>(u) * d_;
      for (int p = 0; p < d_; ++p) cum_row[p] += row[p];
      const auto [lo, hi] = std::minmax_element(cum_row, cum_row + d_);
      report_.observed_delta = std::max(report_.observed_delta, *hi - *lo);
    }
    ++report_.steps;
  }

  const FairnessReport& report() const noexcept { return report_; }

 private:
  bool initialized_ = false;
  NodeId n_ = 0;
  int d_ = 0;
  int d_loops_ = 0;
  std::vector<Load> cum_;
  FairnessReport report_;
};

/// Every field of the two reports, with `where` naming the run and round.
void expect_same_report(const FairnessReport& got, const FairnessReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.observed_delta, want.observed_delta) << where;
  EXPECT_EQ(got.floor_condition_ok, want.floor_condition_ok) << where;
  EXPECT_EQ(got.round_fair, want.round_fair) << where;
  EXPECT_EQ(got.observed_s, want.observed_s) << where;
  EXPECT_EQ(got.max_remainder, want.max_remainder) << where;
  EXPECT_EQ(got.negative_seen, want.negative_seen) << where;
  EXPECT_EQ(got.steps, want.steps) << where;
}

/// A d = 4 generic multigraph: a ring whose neighbours are joined twice.
Graph doubled_ring(NodeId n) {
  std::vector<NodeId> adj;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId r = (u + 1) % n;
    const NodeId l = (u + n - 1) % n;
    adj.insert(adj.end(), {r, r, l, l});
  }
  return Graph(n, 4, std::move(adj), "doubled-ring");
}

TEST(FairnessAuditor, MatchesReferenceOnEveryBalancer) {
  constexpr Step kRounds = 120;
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("cycle", make_cycle(31));
  graphs.emplace_back("torus", make_torus2d(7, 5));
  graphs.emplace_back("hypercube", make_hypercube(4));
  graphs.emplace_back("random-regular", make_random_regular(40, 4, 5));
  graphs.emplace_back("multigraph", doubled_ring(15));
  std::uint64_t seed = 500;
  for (const std::string& name : registered_balancer_names()) {
    const BalancerFactory factory = find_balancer_factory(name);
    const BalancerTraits traits = find_balancer_traits(name);
    for (const auto& [label, g] : graphs) {
      const int d = g.degree();
      const int lo = traits.exact_d_loops ? d : traits.min_loops(d);
      std::vector<int> loop_counts = {lo};
      if (lo != d) loop_counts.push_back(d);
      for (const int d_loops : loop_counts) {
        ++seed;
        // A spread of small loads, with one node above 2^32 so the rows
        // past the 32-bit quotient are audited as well.
        LoadVector initial = random_initial(g.num_nodes(), 300, seed);
        initial[0] += Load{3} << 32;
        const auto b = factory(seed);
        Engine e(g, EngineConfig{.self_loops = d_loops}, *b, initial);
        FairnessAuditor auditor;
        ReferenceAuditor reference;
        e.add_observer(auditor);
        e.add_observer(reference);
        for (Step t = 0; t < kRounds; ++t) {
          e.step();
          expect_same_report(auditor.report(), reference.report(),
                             name + " on " + label + " d°=" +
                                 std::to_string(d_loops) + " seed " +
                                 std::to_string(seed) + " round " +
                                 std::to_string(t));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(FairnessAuditor, MatchesReferenceOnCraftedRows) {
  // C_3 (d = 2) fed hand-built rounds: three nodes, each a row of d⁺ flows.
  const Graph g = make_cycle(3);
  constexpr Load kBig = Load{5} << 32;
  for (const int d_loops : {0, 1, 2, 5}) {
    const int d_plus = 2 + d_loops;
    const auto share = [&](Load x) { return floor_div(x, d_plus); };
    // Every port the floor share, then `extra[p]` added per port.
    const auto row = [&](Load x, std::vector<Load> extra) {
      std::vector<Load> r(static_cast<std::size_t>(d_plus), share(x));
      for (std::size_t p = 0; p < extra.size() && p < r.size(); ++p) {
        r[p] += extra[p];
      }
      return r;
    };
    const auto ones = [&](int from, int count) {
      std::vector<Load> r(static_cast<std::size_t>(d_plus), 0);
      for (int p = from; p < from + count && p < d_plus; ++p) r[p] = 1;
      return r;
    };
    struct Round {
      std::vector<Load> pre;
      std::vector<std::vector<Load>> rows;
    };
    const Load e2 = 4 * d_plus + std::min(2, d_plus - 1);  // e = min(2, d⁺−1)
    std::vector<Round> rounds = {
        // x = 0, and e = 0 with every port the exact share.
        {{0, 4 * d_plus, 7 * d_plus}, {row(0, {}), row(4 * d_plus, {}),
                                       row(7 * d_plus, {})}},
        // Negative x (RAND-ROUND's oversubscribed nodes).
        {{-7, -1, -3 * d_plus}, {row(-7, {}), row(-1, {0, 1}),
                                  row(-3 * d_plus, {})}},
        // x >= 2^32, on and off the floor/ceil band.
        {{kBig + 3, kBig, kBig * 3 + 1}, {row(kBig + 3, ones(0, 2)),
                                          row(kBig, {}),
                                          row(kBig * 3 + 1, {0, 2})}},
        // Self-loop ceilings short of e: the extras go to the real ports.
        {{e2, e2, e2}, {row(e2, ones(0, 2)), row(e2, ones(1, 2)),
                        row(e2, ones(2, 1))}},
        // Self-loop ceilings covering e.
        {{e2, e2, e2}, {row(e2, ones(2, 2)), row(e2, ones(2, 2)),
                        row(e2, ones(0, 0))}},
        // A negative flow, and a negative remainder (over-sent).
        {{10, 3, 0}, {row(10, {-12}), row(3, {5, 5}), row(0, {0, 1})}},
        // Floor kept, band broken: one port two above the floor.
        {{e2, 9, 1}, {row(e2, {2}), row(9, {}), row(1, {})}},
        // A cumulative imbalance that grows, then shrinks.
        {{100, 100, 100}, {row(100, {3}), row(100, {0, 4}), row(100, {})}},
        {{100, 100, 100}, {row(100, {0, 3}), row(100, {4}), row(100, {})}},
    };
    // Then random rounds: loads over every regime, flows the floor share
    // nudged by -1..+2 per port.
    std::mt19937_64 rng(static_cast<std::uint64_t>(d_loops) + 17);
    for (int r = 0; r < 200; ++r) {
      Round round;
      for (int u = 0; u < 3; ++u) {
        const std::uint64_t pick = rng() % 4;
        Load x = static_cast<Load>(rng() % 64);
        if (pick == 1) x = -x;
        if (pick == 2) x += static_cast<Load>(rng() % 8) << 32;
        if (pick == 3) x += (Load{1} << 32) - 32;  // straddles 2^32
        std::vector<Load> extra(static_cast<std::size_t>(d_plus));
        for (Load& f : extra) {
          const std::uint64_t k = rng() % 8;
          f = k < 5 ? 0 : static_cast<Load>(k) - 6;  // mostly 0, else -1..1
        }
        if (rng() % 16 == 0) extra[rng() % extra.size()] += 2;
        round.pre.push_back(x);
        round.rows.push_back(row(x, extra));
      }
      rounds.push_back(std::move(round));
    }

    // The flags are sticky, so each round is audited twice: as one round
    // of a fresh pair, and in sequence after all the rounds before it.
    FairnessAuditor auditor;
    ReferenceAuditor reference;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      std::vector<Load> flows;
      for (const auto& r : rounds[i].rows) {
        flows.insert(flows.end(), r.begin(), r.end());
      }
      const std::string where =
          "d°=" + std::to_string(d_loops) + " round " + std::to_string(i);
      FairnessAuditor fresh;
      ReferenceAuditor fresh_reference;
      fresh.on_step(0, g, d_loops, rounds[i].pre, flows, rounds[i].pre);
      fresh_reference.on_step(0, g, d_loops, rounds[i].pre, flows,
                              rounds[i].pre);
      expect_same_report(fresh.report(), fresh_reference.report(),
                         where + " alone");
      auditor.on_step(0, g, d_loops, rounds[i].pre, flows, rounds[i].pre);
      reference.on_step(0, g, d_loops, rounds[i].pre, flows, rounds[i].pre);
      expect_same_report(auditor.report(), reference.report(),
                         where + " in sequence");
    }
  }
}

TEST(FairnessAuditor, RejectsASecondGraphOrLoopCount) {
  const Graph small = make_cycle(8);
  const Graph large = make_hypercube(6);
  SendFloor b1, b2, b3;
  Engine first(small, EngineConfig{.self_loops = 2}, b1,
               random_initial(small.num_nodes(), 50, 1));
  FairnessAuditor auditor;
  first.add_observer(auditor);
  first.run(3);
  // A larger n·d would index past the first graph's cumulative flows.
  Engine larger(large, EngineConfig{.self_loops = 6}, b2,
                random_initial(large.num_nodes(), 50, 2));
  larger.add_observer(auditor);
  EXPECT_THROW(larger.step(), invariant_error);
  // Same graph, other d°.
  Engine other_loops(small, EngineConfig{.self_loops = 1}, b3,
                     random_initial(small.num_nodes(), 50, 3));
  other_loops.add_observer(auditor);
  EXPECT_THROW(other_loops.step(), invariant_error);
  EXPECT_EQ(auditor.report().steps, 3);
}

// ------------------------------------------------------- registry --

TEST(Registry, AllAlgorithmsInstantiable) {
  for (Algorithm a : all_algorithms()) {
    auto b = make_balancer(a, 1);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name(), algorithm_name(a));
  }
}

TEST(Registry, SelfLoopRequirements) {
  EXPECT_EQ(min_self_loops(Algorithm::kSendFloor, 4), 0);
  EXPECT_EQ(min_self_loops(Algorithm::kSendRound, 4), 4);
  EXPECT_EQ(min_self_loops(Algorithm::kRotorRouterStar, 6), 6);
  EXPECT_TRUE(requires_exact_d_loops(Algorithm::kRotorRouterStar));
  EXPECT_FALSE(requires_exact_d_loops(Algorithm::kRotorRouter));
}

TEST(Registry, RotorRouterStarRejectsWrongLoopCount) {
  const Graph g = make_torus2d(4, 4);
  RotorRouterStar b;
  EXPECT_THROW(b.reset(g, 3), invariant_error);
  EXPECT_THROW(b.reset(g, 5), invariant_error);
  EXPECT_NO_THROW(b.reset(g, 4));
}

TEST(Registry, SendRoundRejectsTooFewLoops) {
  const Graph g = make_torus2d(4, 4);
  SendRound b;
  EXPECT_THROW(b.reset(g, 2), invariant_error);
}

// -------------------------------------- determinism of randomized algos --

TEST(Determinism, RandomizedAlgorithmsAreSeedReproducible) {
  const Graph g = make_hypercube(4);
  for (Algorithm a : {Algorithm::kRandomizedExtra,
                      Algorithm::kRandomizedRounding,
                      Algorithm::kRotorRouter}) {
    auto b1 = make_balancer(a, 777);
    auto b2 = make_balancer(a, 777);
    Engine e1(g, EngineConfig{.self_loops = 4}, *b1,
              point_mass_initial(g.num_nodes(), 4096));
    Engine e2(g, EngineConfig{.self_loops = 4}, *b2,
              point_mass_initial(g.num_nodes(), 4096));
    e1.run(100);
    e2.run(100);
    EXPECT_EQ(e1.loads(), e2.loads()) << algorithm_name(a);
  }
}

TEST(Determinism, DifferentSeedsDivergeForRandomized) {
  const Graph g = make_hypercube(4);
  auto b1 = make_balancer(Algorithm::kRandomizedExtra, 1);
  auto b2 = make_balancer(Algorithm::kRandomizedExtra, 2);
  Engine e1(g, EngineConfig{.self_loops = 4}, *b1,
            point_mass_initial(g.num_nodes(), 4096));
  Engine e2(g, EngineConfig{.self_loops = 4}, *b2,
            point_mass_initial(g.num_nodes(), 4096));
  e1.run(50);
  e2.run(50);
  EXPECT_NE(e1.loads(), e2.loads());
}

}  // namespace
}  // namespace dlb
