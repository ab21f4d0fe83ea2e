// E11 — Throughput race: wall-clock cost of one balancing step for every
// algorithm, and thread-scaling of the SweepRunner scenario driver
// (google-benchmark harness).
//
// The paper's schemes are attractive partly because they are *cheap*:
// SEND needs one division per node, ROTOR-ROUTER one division plus a
// rotor bump, and none of them needs to know the neighbours' loads. This
// bench quantifies steps/second per algorithm on a 2^14-node random
// regular graph, plus the continuous reference and the spectral-gap
// computation used for calibration. BM_SweepMatrix runs a reduced
// Table-1-shaped scenario matrix through SweepRunner at 1/2/4/8 worker
// threads — the scaling curve every future perf PR measures against.
#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "balancers/continuous.hpp"
#include "balancers/registry.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"

namespace {

using namespace dlb;

const Graph& big_graph() {
  static const Graph g = make_random_regular(1 << 14, 8, 2024);
  return g;
}

void BM_BalancerStep(benchmark::State& state) {
  const auto algo = static_cast<Algorithm>(state.range(0));
  const Graph& g = big_graph();
  // Factory-based construction, as a sweep worker would do it.
  auto balancer = balancer_factory(algo)(1);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, *balancer,
           random_initial(g.num_nodes(), 200, 3));
  for (auto _ : state) {
    e.step();
    benchmark::DoNotOptimize(e.loads().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  state.SetLabel(algorithm_name(algo));
}

void BM_ContinuousStep(benchmark::State& state) {
  const Graph& g = big_graph();
  ContinuousDiffusion c(g, g.degree(),
                        random_initial(g.num_nodes(), 200, 3));
  for (auto _ : state) {
    c.step();
    benchmark::DoNotOptimize(c.loads().data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
  state.SetLabel("CONTINUOUS");
}

void BM_SpectralGap(benchmark::State& state) {
  const Graph g = make_random_regular(static_cast<NodeId>(state.range(0)), 8, 7);
  for (auto _ : state) {
    auto res = spectral_gap(g, g.degree());
    benchmark::DoNotOptimize(res.gap);
  }
}

/// Shared read-only matrix for the sweep race: 2 families × all 9
/// algorithms × 2 seeds = 36 scenarios, at a quarter of the Table-1
/// horizon so one iteration stays sub-second.
const SweepMatrix& race_matrix() {
  static const SweepMatrix matrix = [] {
    SweepMatrix m;
    {
      Graph g = make_torus2d(12, 12);
      m.add_graph("torus", std::move(g), 1.0 - lambda2_torus({12, 12}, 4));
    }
    {
      Graph g = make_cycle(96);
      m.add_graph("cycle", std::move(g), 1.0 - lambda2_cycle(96, 2));
    }
    m.add_all_algorithms()
        .add_shape(InitialShape::kBimodal)
        .add_load_scale(128)
        .add_seed(1)
        .add_seed(2);
    return m;
  }();
  return matrix;
}

void BM_SweepMatrix(benchmark::State& state) {
  SweepOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.base.time_multiplier = 0.25;
  options.base.run_continuous = false;

  const SweepRunner runner(options);
  std::size_t scenarios = 0;
  for (auto _ : state) {
    auto rows = runner.run(race_matrix());
    scenarios = rows.size();
    benchmark::DoNotOptimize(rows.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenarios));
  state.SetLabel("sweep x" + std::to_string(state.range(0)) + " threads");
}

}  // namespace

BENCHMARK(BM_BalancerStep)
    ->DenseRange(0, 8, 1)  // the nine Algorithm enum values
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ContinuousStep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SpectralGap)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepMatrix)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
