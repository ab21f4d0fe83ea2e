// Tests for the experiment driver and the bound-formula helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "analysis/bounds.hpp"
#include "analysis/experiment.hpp"
#include "balancers/rotor_router.hpp"
#include "balancers/send_floor.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"

namespace dlb {
namespace {

// ------------------------------------------------------ initial loads --

TEST(InitialLoads, PointMass) {
  const auto x = point_mass_initial(5, 100);
  EXPECT_EQ(x.size(), 5u);
  EXPECT_EQ(x[0], 100);
  EXPECT_EQ(total_load(x), 100);
  EXPECT_EQ(discrepancy(x), 100);
}

TEST(InitialLoads, Bimodal) {
  const auto x = bimodal_initial(6, 10);
  EXPECT_EQ(total_load(x), 30);
  EXPECT_EQ(discrepancy(x), 10);
  EXPECT_EQ(x[2], 10);
  EXPECT_EQ(x[3], 0);
}

TEST(InitialLoads, BimodalOddSize) {
  const auto x = bimodal_initial(7, 10);
  EXPECT_EQ(total_load(x), 30);  // ⌊7/2⌋ = 3 loaded nodes
}

TEST(InitialLoads, RandomWithinRangeAndSeedStable) {
  const auto a = random_initial(100, 25, 7);
  const auto b = random_initial(100, 25, 7);
  const auto c = random_initial(100, 25, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (Load v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 25);
  }
}

TEST(InitialLoads, RandomKnownAnswers) {
  // FNV-1a over the 1000 loads of random_initial(1000, max, 7), recorded
  // from uniform_int(0, max) draws; 2⁶³−1 makes the bound 2⁶³.
  const struct {
    Load max;
    std::uint64_t hash;
  } cases[] = {
      {0, 0x51e78e744621f425ULL},
      {1, 0xd42330b2b125e5a5ULL},
      {1000, 0x85b07425948edd2bULL},
      {Load{1} << 40, 0xe7a8d8af2952dae3ULL},
      {std::numeric_limits<Load>::max(), 0x3f0bd67c6b84017dULL},
  };
  for (const auto& c : cases) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (Load v : random_initial(1000, c.max, 7)) {
      for (int i = 0; i < 8; ++i) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(h, c.hash) << "max_per_node " << c.max;
  }
}

// ---------------------------------------------------------- driver --

TEST(Experiment, RecordsSamplesAndFinalState) {
  const Graph g = make_hypercube(5);
  RotorRouter b(1);
  ExperimentSpec spec;
  spec.self_loops = 5;
  spec.sample_fractions = {0.5, 1.0};
  const double mu = 1.0 - lambda2_hypercube(5, 5);
  const auto r = run_experiment(g, b, bimodal_initial(g.num_nodes(), 320),
                                mu, spec);

  EXPECT_EQ(r.algorithm, "ROTOR-ROUTER");
  EXPECT_EQ(r.n, 32);
  EXPECT_EQ(r.d, 5);
  EXPECT_EQ(r.d_loops, 5);
  EXPECT_EQ(r.initial_discrepancy, 320);
  ASSERT_EQ(r.samples.size(), 2u);
  EXPECT_EQ(r.samples[1].first, r.horizon);
  EXPECT_EQ(r.samples[1].second, r.final_discrepancy);
  EXPECT_LT(r.final_discrepancy, 320);
  EXPECT_GE(r.horizon, r.t_balance);
  EXPECT_LT(r.continuous_final_discrepancy, 1.0);
}

TEST(Experiment, TimeMultiplierScalesHorizon) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  spec.time_multiplier = 3.0;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_EQ(r.horizon,
            static_cast<Step>(std::ceil(3.0 * static_cast<double>(r.t_balance))));
}

TEST(Experiment, ContinuousCanBeSkipped) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  spec.run_continuous = false;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_TRUE(std::isnan(r.continuous_final_discrepancy));
}

TEST(Experiment, SummaryMentionsKeyFields) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  const std::string s = summarize(r);
  EXPECT_NE(s.find("SEND(floor)"), std::string::npos);
  EXPECT_NE(s.find("hypercube(4)"), std::string::npos);
  EXPECT_NE(s.find("K=64"), std::string::npos);
}

// ------------------------------------------------- reach-phase edges --

TEST(Experiment, ReachTargetAlreadyMetAtStart) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  spec.run_continuous = false;
  // The initial discrepancy *is* the target: the reach phase must end
  // before taking a single step, and the sampled horizon still runs.
  spec.reach_target = 64;
  spec.reach_cap = 1000;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_EQ(r.t_reach, 0);
  EXPECT_GE(r.horizon, 1);
  EXPECT_EQ(r.samples.back().first, r.horizon);
}

TEST(Experiment, ReachCapZeroTakesNoSteps) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  spec.run_continuous = false;
  spec.fixed_horizon = 1;  // keep the sampled phase minimal
  spec.reach_target = 0;   // far below the initial discrepancy
  spec.reach_cap = 0;      // 0-step budget: the phase is a no-op
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_EQ(r.t_reach, 0);
  EXPECT_EQ(r.horizon, 1);
  EXPECT_FALSE(r.reached);  // discrepancy 64 > target 0 at phase end
}

TEST(Experiment, ReachedFlagDisambiguatesTReachEqualToCap) {
  const Graph g = make_hypercube(4);
  SendFloor b1;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  ExperimentSpec probe;
  probe.self_loops = 4;
  probe.run_continuous = false;
  probe.fixed_horizon = 1;
  probe.reach_target = 8;
  probe.reach_cap = 10000;
  const auto first = run_experiment(g, b1, bimodal_initial(16, 64), mu, probe);
  ASSERT_GT(first.t_reach, 0);          // took some steps...
  ASSERT_LT(first.t_reach, probe.reach_cap);  // ...and genuinely reached
  EXPECT_TRUE(first.reached);

  // Edge 1: cap set to exactly the step count that reaches the target.
  // run_until_discrepancy checks *before* each step, so the step that
  // lands on the target is the cap-th and t_reach == reach_cap — the
  // step count alone cannot distinguish this from a capped miss, but the
  // reached flag can.
  SendFloor b2;
  ExperimentSpec exact = probe;
  exact.reach_cap = first.t_reach;
  const auto r = run_experiment(g, b2, bimodal_initial(16, 64), mu, exact);
  EXPECT_EQ(r.t_reach, exact.reach_cap);
  EXPECT_TRUE(r.reached);  // hit the target on the last allowed step

  // Edge 2: the same t_reach value from a genuinely capped miss — one
  // step short of the reach step, target still above the discrepancy.
  SendFloor b3;
  ExperimentSpec miss = probe;
  miss.reach_cap = first.t_reach - 1;
  const auto m = run_experiment(g, b3, bimodal_initial(16, 64), mu, miss);
  EXPECT_EQ(m.t_reach, miss.reach_cap);
  EXPECT_FALSE(m.reached);  // same "t_reach == cap" shape, opposite verdict

  // One extra step of cap and the phase stops early, unambiguously.
  SendFloor b4;
  ExperimentSpec slack = probe;
  slack.reach_cap = first.t_reach + 1;
  const auto s = run_experiment(g, b4, bimodal_initial(16, 64), mu, slack);
  EXPECT_EQ(s.t_reach, first.t_reach);
  EXPECT_TRUE(s.reached);
}

TEST(Experiment, ReachPhaseOffByDefault) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  spec.run_continuous = false;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_EQ(r.t_reach, -1);  // sentinel: no reach phase configured
  EXPECT_FALSE(r.reached);
}

TEST(Experiment, RejectsBadArguments) {
  const Graph g = make_hypercube(3);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 3;
  EXPECT_THROW(run_experiment(g, b, bimodal_initial(8, 8), 0.0, spec),
               invariant_error);
  spec.sample_fractions = {1.5};
  EXPECT_THROW(run_experiment(g, b, bimodal_initial(8, 8), 0.5, spec),
               invariant_error);
}

// ------------------------------------------------------------ bounds --

TEST(Bounds, FormulasMatchDefinitions) {
  const double mu = 0.25;
  EXPECT_DOUBLE_EQ(bound_rsw(4, 100, mu), 4.0 * std::log(100.0) / mu);
  EXPECT_DOUBLE_EQ(bound_thm23_sqrt_log(1.0, 4, 100, mu),
                   2.0 * 4.0 * std::sqrt(std::log(100.0) / mu));
  EXPECT_DOUBLE_EQ(bound_thm23_sqrt_n(0.0, 4, 100), 4.0 * 10.0);
  EXPECT_DOUBLE_EQ(bound_thm23(0.0, 4, 100, mu),
                   std::min(bound_thm23_sqrt_log(0.0, 4, 100, mu),
                            bound_thm23_sqrt_n(0.0, 4, 100)));
  EXPECT_EQ(bound_thm33_discrepancy(1, 8, 4), 3 * 8 + 16);
  EXPECT_DOUBLE_EQ(lower_bound_thm41(4, 10), 40.0);
  EXPECT_DOUBLE_EQ(lower_bound_thm42(6), 6.0);
  EXPECT_DOUBLE_EQ(lower_bound_thm43(2, 32), 64.0);
}

TEST(Bounds, Thm23SqrtLogBeatsRswOnExpanders) {
  // The paper's headline: for constant µ the √(log n) bound is
  // asymptotically below the log n bound of [17].
  for (NodeId n : {64, 256, 1024, 4096}) {
    EXPECT_LT(bound_thm23_sqrt_log(1.0, 4, n, 0.3), bound_rsw(4, n, 0.3) * 2.0);
  }
  // Ratio grows with n:
  const double r1 = bound_rsw(4, 256, 0.3) / bound_thm23_sqrt_log(1.0, 4, 256, 0.3);
  const double r2 = bound_rsw(4, 65536, 0.3) / bound_thm23_sqrt_log(1.0, 4, 65536, 0.3);
  EXPECT_GT(r2, r1);
}

TEST(Bounds, Thm33TimeDecreasesWithS) {
  EXPECT_GT(bound_thm33_time(100, 8, 1, 1024, 0.1),
            bound_thm33_time(100, 8, 8, 1024, 0.1));
}

TEST(Bounds, RejectBadArguments) {
  EXPECT_THROW(bound_rsw(4, 100, 0.0), invariant_error);
  EXPECT_THROW(bound_rsw(4, 1, 0.5), invariant_error);
  EXPECT_THROW(bound_thm33_time(10, 4, 0, 100, 0.5), invariant_error);
}

}  // namespace
}  // namespace dlb
