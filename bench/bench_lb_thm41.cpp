// E6 — Theorem 4.1: dropping cumulative fairness admits round-fair
// balancers frozen at discrepancy Ω(d·diam(G)).
//
// Workload: the explicit steady-state construction on cycles, tori and a
// hypercube. For each instance we verify the loads are literally frozen
// over a long run, that the run is round-fair (auditor), and report the
// discrepancy / (d·diam) ratio — which must stay bounded away from 0 as
// the instances grow.
//
// The whole gallery is one SweepRunner invocation: each graph enters the
// matrix as its own family, the balancer axis carries one case that
// rebuilds the Thm 4.1 instance from whatever graph it is reset on, and a
// custom ShapeCase derives the matching frozen initial loads — so the
// runs parallelize across scenarios with --threads (every graph is far
// below the 2^15 nodes at which SweepRunner would nest round-parallel
// engines), and --csv emits the standard sweep CSV, matching
// bench_table1.
#include <cstdio>
#include <memory>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/sweep.hpp"
#include "bench_common.hpp"
#include "graph/properties.hpp"
#include "lowerbounds/steady_state.hpp"

namespace {

using namespace dlb;

constexpr Step kHorizon = 500;

/// Rebuilds the Thm 4.1 frozen instance for whatever graph it is reset
/// on (source 0, as in the seed bench), so one BalancerCase serves every
/// graph family of the sweep.
class SteadyStateAuto : public Balancer {
 public:
  std::string name() const override { return "STEADY-STATE(Thm4.1)"; }
  void reset(const Graph& graph, int d_loops) override {
    inner_ = std::make_unique<SteadyStateBalancer>(
        make_steady_state_instance(graph, 0));
    inner_->reset(graph, d_loops);
  }
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override {
    inner_->decide(u, load, t, flows);
  }
  bool parallel_decide_safe() const override { return true; }

 private:
  std::unique_ptr<SteadyStateBalancer> inner_;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepCli cli =
      bench::parse_sweep_cli(argc, argv, "bench_lb_thm41");

  std::printf("bench_lb_thm41: Thm 4.1 — round-fair but not cumulatively "
              "fair: frozen at Omega(d*diam)\n");

  SweepMatrix matrix;
  const auto add = [&matrix](Graph g) {
    std::string family = g.name();
    matrix.add_graph(std::move(family), std::move(g), /*mu=*/1.0);
  };
  for (NodeId n : {16, 32, 64, 128, 256}) add(make_cycle(n));
  add(make_torus2d(8, 8));
  add(make_torus2d(16, 16));
  add(make_torus({4, 4, 4}));
  add(make_hypercube(8));
  add(make_random_regular(256, 4, 11));
  BalancerCase steady;
  steady.name = "STEADY-STATE(Thm4.1)";
  steady.factory = [](std::uint64_t) { return std::make_unique<SteadyStateAuto>(); };
  steady.adjust_self_loops = [](int, int) { return 0; };  // Thm 4.1: d° = 0
  matrix.add_balancer(std::move(steady));
  matrix.add_shape(ShapeCase{
      "steady-state",
      [](const Graph& g, Load, std::uint64_t) {
        return make_steady_state_instance(g, 0).initial;
      }});
  matrix.add_load_scale(0);  // the shape ignores K
  matrix.add_self_loops(0);

  SweepOptions options;
  options.threads = cli.threads;
  options.base.fixed_horizon = kHorizon;
  options.base.run_continuous = false;
  options.base.audit_fairness = true;  // the round-fairness column
  options.base.record_final_loads = true;  // the frozen check
  options.base.sample_fractions = {1.0};
  const std::vector<SweepRow> rows = SweepRunner(options).run(matrix);

  std::printf("%-20s %5s %4s %6s %10s %10s %8s %7s %6s\n", "graph", "n", "d",
              "diam", "disc", "d*diam", "ratio", "frozen", "rfair");
  bench::rule(96);
  for (const SweepRow& row : rows) {
    const Graph& graph = *matrix.graphs()[row.graph_index].graph;
    const int diam = diameter(graph);
    const bool frozen =
        row.result.final_loads == make_steady_state_instance(graph, 0).initial;
    const double bound = lower_bound_thm41(graph.degree(), diam);
    const double ratio =
        static_cast<double>(row.result.final_discrepancy) / bound;
    std::printf("%-20s %5d %4d %6d %10lld %10.0f %8.3f %7s %6s\n",
                graph.name().c_str(), graph.num_nodes(), graph.degree(), diam,
                static_cast<long long>(row.result.final_discrepancy), bound,
                ratio, frozen ? "yes" : "NO!",
                row.result.fairness.round_fair ? "yes" : "NO!");
  }
  std::printf("expected shape: ratio bounded below (≈0.5–1.0) across all "
              "instances; loads frozen; every run round-fair.\n");
  return bench::emit_sweep_csv(rows, cli);
}
