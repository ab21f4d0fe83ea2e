// Dynamic steady-state discrepancy: how well each balancer holds the
// line under churning demand.
//
// The paper's results are convergence statements from a fixed initial
// load; this bench instead measures the *steady state* of the
// src/dynamics subsystem: every scenario runs a fixed horizon while a
// workload process injects and consumes tokens between rounds, and the
// figure of merit is the windowed discrepancy (mean / max / p99 over the
// trailing window) plus the time-to-steady round, reported per
// {graph family × balancer × workload}.
//
// Workload axis: the static baseline, two balanced Poisson churn rates,
// a periodic hotspot burst (with a matching per-node drain), and the
// adversarial injector that re-targets the current maximum-load node
// while draining the minimum. The whole grid is one SweepRunner
// invocation (--threads=N, --csv=FILE); the engine audits conservation
// every round, so a smoke run of this bench is also an end-to-end proof
// of the dynamic identity
// Σx == Σx₀ + injected − consumed.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "bench_common.hpp"
#include "dynamics/workload.hpp"

namespace {

using namespace dlb;
using bench::Instance;

constexpr Step kHorizon = 1200;
constexpr int kSteadyWindow = 128;
constexpr Step kWarmup = 400;

std::vector<WorkloadCase> workload_axis() {
  // Axis labels come from the processes' own name() so the CSV label can
  // never drift from what actually ran.
  std::vector<WorkloadCase> cases;
  cases.push_back(static_workload());
  for (double rate : {0.2, 1.0}) {
    const PoissonWorkload::Params params{rate, rate};
    cases.push_back({PoissonWorkload(params).name(), [params](std::uint64_t) {
                       return std::make_unique<PoissonWorkload>(params);
                     }});
  }
  {
    const BurstWorkload::Params params{
        .period = 64, .burst = 256, .drain_period = 16, .drain_amount = 1};
    cases.push_back({BurstWorkload(params).name(), [params](std::uint64_t) {
                       return std::make_unique<BurstWorkload>(params);
                     }});
  }
  {
    const AdversarialInjector::Params params{
        .amount = 8, .period = 1, .drain_min = true};
    cases.push_back(
        {AdversarialInjector(params).name(), [params](std::uint64_t) {
           return std::make_unique<AdversarialInjector>(params);
         }});
  }
  return cases;
}

void print_family(const GraphCase& gc, const std::vector<SweepRow>& rows) {
  const Graph& g = *gc.graph;
  std::printf("\n=== %s: %s, n=%d, d=%d ===\n", gc.family.c_str(),
              g.name().c_str(), g.num_nodes(), g.degree());
  std::printf("%-16s %-26s %10s %10s %10s %9s %9s %9s %9s\n", "algorithm",
              "workload", "steady_avg", "steady_max", "steady_p99", "t_steady",
              "disc@T", "injected", "consumed");
  bench::rule(118);
  for (const SweepRow& row : rows) {
    if (row.family != gc.family) continue;
    const ExperimentResult& r = row.result;
    const std::string t_steady =
        r.steady.t_steady >= 0 ? std::to_string(r.steady.t_steady) : "never";
    std::printf("%-16s %-26s %10.2f %10lld %10lld %9s %9lld %9lld %9lld\n",
                row.balancer.c_str(), row.workload.c_str(),
                r.steady.window_mean,
                static_cast<long long>(r.steady.window_max),
                static_cast<long long>(r.steady.window_p99), t_steady.c_str(),
                static_cast<long long>(r.final_discrepancy),
                static_cast<long long>(r.injected_total),
                static_cast<long long>(r.consumed_total));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::SweepCli cli =
      bench::parse_sweep_cli(argc, argv, "bench_dynamic_steady");

  std::printf("bench_dynamic_steady: windowed steady-state discrepancy under "
              "churn (horizon=%lld, window=%d, warmup=%lld)\n",
              static_cast<long long>(kHorizon), kSteadyWindow,
              static_cast<long long>(kWarmup));

  SweepMatrix matrix;
  {
    Instance inst = bench::cycle_instance(256, 2);
    matrix.add_graph("cycle", std::move(inst.graph), inst.mu);
  }
  {
    Instance inst = bench::torus_instance(16, 16, 4);
    matrix.add_graph("torus", std::move(inst.graph), inst.mu);
  }
  {
    Instance inst = bench::hypercube_instance(8, 8);
    matrix.add_graph("hypercube", std::move(inst.graph), inst.mu);
  }
  matrix.add_balancer(Algorithm::kSendFloor)
      .add_balancer(Algorithm::kRotorRouter)
      .add_balancer(Algorithm::kSendRound)
      .add_balancer(Algorithm::kRandomizedExtra)  // serial-decide path
      .add_shape(InitialShape::kBimodal)
      .add_load_scale(64)
      .add_seed(12345);
  for (WorkloadCase& wc : workload_axis()) matrix.add_workload(std::move(wc));

  SweepOptions options;
  options.threads = cli.threads;
  options.base.fixed_horizon = kHorizon;
  options.base.run_continuous = false;
  options.base.audit_fairness = false;  // lazy path; fairness is static-run
  options.base.steady =
      SteadyOptions{.window = kSteadyWindow, .warmup = kWarmup};

  SweepRunner runner(options);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<SweepRow> rows = runner.run(matrix);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const GraphCase& gc : matrix.graphs()) print_family(gc, rows);

  std::printf("\nsweep: %zu scenarios, %d worker thread(s), %.2f s wall; "
              "conservation audited every round\n",
              rows.size(), runner.effective_threads(rows.size()), seconds);

  return bench::emit_sweep_csv(rows, cli);
}
