// Cross-module integration tests: numeric-vs-analytic spectral gaps on
// generator families, the full experiment pipeline over the registry,
// the continuous-mimicking balancer's Θ(d) guarantee, and the Margulis
// expander end-to-end.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "analysis/bounds.hpp"
#include "analysis/experiment.hpp"
#include "balancers/continuous_mimic.hpp"
#include "balancers/registry.hpp"
#include "core/fairness.hpp"
#include "core/flow_tracker.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"

namespace dlb {
namespace {

// ------------------------------------------ spectral cross-validation --

TEST(Integration, NumericGapMatchesAnalyticAcrossFamilies) {
  struct Case {
    Graph g;
    int d_loops;
    double lambda2;
  };
  const Case cases[] = {
      {make_cycle(24), 2, lambda2_cycle(24, 2)},
      {make_cycle(24), 4, lambda2_cycle(24, 4)},
      {make_torus2d(4, 8), 4, lambda2_torus({4, 8}, 4)},
      {make_torus({3, 4, 5}), 6, lambda2_torus({3, 4, 5}, 6)},
      {make_hypercube(5), 5, lambda2_hypercube(5, 5)},
      {make_complete(12), 11, lambda2_complete(12, 11)},
  };
  for (const auto& c : cases) {
    const auto res = spectral_gap(c.g, c.d_loops);
    EXPECT_NEAR(res.lambda2, c.lambda2, 1e-6)
        << c.g.name() << " d°=" << c.d_loops;
  }
}

TEST(Integration, MargulisIsAnExpander) {
  // The MGG graph has λ(adjacency) <= 5√2 ≈ 7.071 independent of m, i.e.
  // a constant spectral gap — unlike tori/cycles whose gap vanishes.
  double prev_gap = 1.0;
  for (NodeId m : {8, 12, 16}) {
    const Graph g = make_margulis(m);
    EXPECT_EQ(g.degree(), 8);
    EXPECT_TRUE(is_connected(g));
    verify_regular_symmetric(g);
    const auto res = spectral_gap(g, 8);
    // (8 − 5√2)/16 ≈ 0.0580 is the asymptotic floor with d° = 8.
    EXPECT_GT(res.gap, 0.05) << m;
    prev_gap = res.gap;
  }
  // Contrast: the 16×16 torus (n = 256 = margulis(16)) has a much
  // smaller gap.
  EXPECT_LT(1.0 - lambda2_torus({16, 16}, 4), prev_gap);
}

TEST(Integration, MargulisBalancesLikeAnExpander) {
  const Graph g = make_margulis(12);  // n = 144, d = 8
  const double mu = spectral_gap(g, 8).gap;
  auto b = make_balancer(Algorithm::kRotorRouter, 3);
  ExperimentSpec spec;
  spec.self_loops = 8;
  spec.run_continuous = false;
  const auto r = run_experiment(
      g, *b, point_mass_initial(g.num_nodes(), 100 * g.num_nodes()), mu, spec);
  EXPECT_LE(r.final_discrepancy, 2 * g.degree());
  EXPECT_LE(r.fairness.observed_delta, 1);
}

// -------------------------------------------------- registry pipeline --

class PipelineTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PipelineTest, EveryAlgorithmBalancesEveryFamily) {
  const Algorithm algo = GetParam();
  struct Inst {
    Graph g;
    double mu;
  };
  const Inst insts[] = {
      {make_hypercube(5), 1.0 - lambda2_hypercube(5, 5)},
      {make_torus2d(5, 5), 1.0 - lambda2_torus({5, 5}, 4)},
      {make_cycle(17), 1.0 - lambda2_cycle(17, 2)},
  };
  for (const auto& inst : insts) {
    const int d = inst.g.degree();
    auto b = make_balancer(algo, 11);
    ExperimentSpec spec;
    spec.self_loops = d;  // d° = d works for every algorithm
    spec.run_continuous = false;
    const auto r = run_experiment(
        inst.g, *b, bimodal_initial(inst.g.num_nodes(), 300), inst.mu, spec);
    // Generous envelope: everything lands at O(d·√(log n/µ) + d⁺).
    const double envelope =
        4.0 * bound_thm23_sqrt_log(1.0, d, inst.g.num_nodes(), inst.mu) +
        4.0 * d;
    EXPECT_LE(static_cast<double>(r.final_discrepancy), envelope)
        << algorithm_name(algo) << " on " << inst.g.name();
    // Conservation is engine-checked; also confirm the run kept K's mass.
    EXPECT_EQ(r.initial_discrepancy, 300);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PipelineTest,
                         ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           std::string n = algorithm_name(info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

// ------------------------------------------------- continuous mimic --

TEST(ContinuousMimicTest, TracksContinuousFlowWithinHalfToken) {
  const Graph g = make_torus2d(5, 5);
  ContinuousMimic b;
  Engine e(g, EngineConfig{.self_loops = 4}, b,
           bimodal_initial(g.num_nodes(), 200));
  FlowTracker tracker;
  e.add_observer(tracker);
  e.run(300);

  // Independent reconstruction of the cumulative continuous flows.
  {
    std::vector<double> y(g.num_nodes());
    const auto init = bimodal_initial(g.num_nodes(), 200);
    for (NodeId u = 0; u < g.num_nodes(); ++u) y[u] = init[u];
    std::vector<double> w(static_cast<std::size_t>(g.num_nodes()) * 4, 0.0);
    for (int t = 0; t < 300; ++t) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (int p = 0; p < 4; ++p) w[u * 4 + p] += y[u] / 8.0;
      }
      std::vector<double> next(g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        double acc = 4.0 / 8.0 * y[v];
        for (int p = 0; p < 4; ++p) acc += y[g.neighbor(v, p)] / 8.0;
        next[v] = acc;
      }
      y.swap(next);
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (int p = 0; p < 4; ++p) {
        EXPECT_NEAR(static_cast<double>(tracker.cumulative(u, p)),
                    w[u * 4 + p], 0.5 + 1e-9);
      }
    }
  }
}

TEST(ContinuousMimicTest, ReachesThetaDDiscrepancyAtT) {
  const Graph g = make_hypercube(7);
  const double mu = 1.0 - lambda2_hypercube(7, 7);
  ContinuousMimic b;
  ExperimentSpec spec;
  spec.self_loops = 7;
  spec.run_continuous = false;
  const auto r = run_experiment(
      g, b, point_mass_initial(g.num_nodes(), 50 * g.num_nodes()), mu, spec);
  // [4]: discrepancy <= 2d after T. Our rounding keeps |F − W| <= 1/2 per
  // edge, so each node deviates by at most d from the continuous load.
  EXPECT_LE(r.final_discrepancy, 2 * g.degree());
}

TEST(ContinuousMimicTest, CanGoNegativeOnSmallLoads) {
  // The paper's criticism of [4]: with small initial loads the prescribed
  // flow can exceed the available tokens.
  const Graph g = make_cycle(9);
  ContinuousMimic b;
  Engine e(g, EngineConfig{.self_loops = 2}, b,
           point_mass_initial(g.num_nodes(), 9));
  e.run(50);
  EXPECT_LE(e.min_load_seen(), 0);
}

// ----------------------------------------------------- time scales --

TEST(Integration, FormulaTIsGenerousForDiscreteSchemesToo) {
  // For every deterministic cumulatively fair scheme, the discrepancy at
  // T is already within the Thm 2.3 envelope — i.e. T (c = 16) needs no
  // further slack. This ties mixing.hpp, spectral.hpp and the engine
  // together on a mid-size instance.
  const Graph g = make_torus2d(8, 8);
  const double mu = 1.0 - lambda2_torus({8, 8}, 4);
  for (Algorithm a : {Algorithm::kSendFloor, Algorithm::kRotorRouter,
                      Algorithm::kRotorRouterStar}) {
    auto b = make_balancer(a, 1);
    ExperimentSpec spec;
    spec.self_loops = 4;
    spec.run_continuous = true;
    const auto r = run_experiment(g, *b,
                                  point_mass_initial(g.num_nodes(), 6400),
                                  mu, spec);
    EXPECT_LT(r.continuous_final_discrepancy, 1.0) << algorithm_name(a);
    EXPECT_LE(static_cast<double>(r.final_discrepancy),
              bound_thm23(1.0, g.degree(), g.num_nodes(), mu) + 4 * g.degree())
        << algorithm_name(a);
  }
}

}  // namespace
}  // namespace dlb
