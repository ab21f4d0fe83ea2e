// expander_race: all Table-1 algorithms racing on one expander.
//
// Scenario from the paper's introduction: a cluster of n processors in a
// well-connected (expander) topology with a heavily skewed initial job
// assignment. We race every implemented scheme from the same initial
// load — one SweepRunner invocation fans the nine runs across all cores
// — printing the discrepancy trajectory and the audited fairness class:
// a compact, runnable version of Table 1 on a single instance.
//
// Usage: expander_race [n] [d] [seed]
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "util/parse_number.hpp"

namespace {

/// Positional argument i, or `fallback` when absent; a malformed one
/// prints usage and exits 2.
template <class T>
T positional(int argc, char** argv, int i, T fallback) {
  if (argc <= i) return fallback;
  const std::optional<T> v = dlb::parse_number<T>(argv[i]);
  if (!v) {
    std::fprintf(stderr, "usage: expander_race [n] [d] [seed]\n");
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlb;
  const NodeId n = positional<NodeId>(argc, argv, 1, 512);
  const int d = positional<int>(argc, argv, 2, 8);
  const auto seed = positional<std::uint64_t>(argc, argv, 3, 7);

  Graph g = make_random_regular(n, d, seed);
  const double mu = spectral_gap(g, d).gap;
  const std::string graph_name = g.name();

  std::printf("expander race: %s, d°=d=%d, µ=%.4f, K=%lld tokens on node 0\n",
              graph_name.c_str(), d, mu,
              static_cast<long long>(100) * n);
  std::printf("%-16s %10s %10s %10s %8s %7s %9s\n", "algorithm", "disc@T/4",
              "disc@T/2", "disc@T", "delta", "rfair", "min-load");
  for (int i = 0; i < 76; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);

  SweepMatrix matrix;
  matrix.add_graph("expander", std::move(g), mu)
      .add_all_algorithms()
      .add_shape(InitialShape::kPointMass)
      .add_load_scale(100)  // 100·n tokens on node 0
      .add_seed(seed + 1);

  SweepOptions options;
  options.threads = 0;  // all cores
  options.base.sample_fractions = {0.25, 0.5, 1.0};
  options.base.run_continuous = false;

  for (const SweepRow& row : SweepRunner(options).run(matrix)) {
    const ExperimentResult& r = row.result;
    std::printf("%-16s %10lld %10lld %10lld %8lld %7s %9lld\n",
                r.algorithm.c_str(),
                static_cast<long long>(r.samples[0].second),
                static_cast<long long>(r.samples[1].second),
                static_cast<long long>(r.final_discrepancy),
                static_cast<long long>(r.fairness.observed_delta),
                r.fairness.round_fair ? "yes" : "no",
                static_cast<long long>(r.min_load_seen));
  }
  std::printf("\nreading guide: deterministic cumulatively fair schemes "
              "(SEND*, ROTOR*) match or beat the randomized baselines, "
              "without ever going negative (min-load column).\n");
  return 0;
}
