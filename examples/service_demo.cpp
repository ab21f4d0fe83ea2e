// Service demo: the balancer as a long-running, crash-recoverable daemon.
//
// Runs one balancer over a cycle under admission-limited Poisson churn,
// checkpointing the full engine state periodically and streaming one CSV
// row per round. Killed (SIGTERM/Ctrl-C) and re-launched with the same
// flags, it restores the checkpoint and continues — and by the snapshot
// equivalence contract the concatenated CSV stream is byte-identical to
// an uninterrupted run's. The CI restart-equivalence leg asserts exactly
// that, using --stop-after to raise SIGTERM deterministically mid-run:
//
//   service_demo --rounds=200 --stop-after=100 --checkpoint=ck --csv=a.csv
//   service_demo --rounds=200 --checkpoint=ck --csv=a.csv   # resumes
//   service_demo --rounds=200 --csv=b.csv                   # uninterrupted
//   cmp a.csv b.csv
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/balancer_service.hpp"
#include "util/parse_number.hpp"

using namespace dlb;

namespace {

struct Cli {
  NodeId nodes = 1024;
  std::string balancer = "ROTOR-ROUTER";
  Step rounds = 500;            // total rounds (across restarts)
  Step stop_after = -1;         // raise SIGTERM after this many rounds
  Step checkpoint_interval = 0; // extra periodic checkpoints; 0 = exit only
  Step metrics_interval = 0;
  Load admission_cap = 48;
  std::string checkpoint_path;
  std::string csv_path;
  std::string metrics_file;  // Prometheus text exposition target
  std::string trace_file;    // Chrome trace-event JSON written at exit
};

[[noreturn]] void usage(const char* bad_arg = nullptr) {
  if (bad_arg != nullptr) {
    std::fprintf(stderr, "service_demo: bad argument %s\n", bad_arg);
  }
  std::fprintf(stderr,
               "usage: service_demo [--nodes=N] [--balancer=NAME] "
               "[--rounds=T] [--stop-after=K] [--checkpoint=PATH] "
               "[--checkpoint-interval=K] [--metrics-interval=K] "
               "[--cap=N] [--csv=PATH] [--metrics-file=PATH] "
               "[--trace=PATH]\n");
  std::exit(2);
}

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  out = arg + len + 1;
  return true;
}

/// Integer flags: the whole value must be a decimal integer of type Int
/// that is at least `lo` (no sign prefix but '-', no whitespace, no
/// trailing bytes), otherwise the usage line is printed and the process
/// exits 2.
template <class Int>
bool parse_flag(const char* arg, const char* name, Int& out, Int lo) {
  std::string s;
  if (!parse_flag(arg, name, s)) return false;
  const std::optional<Int> v = parse_number<Int>(s);
  if (!v || *v < lo) usage(arg);
  out = *v;
  return true;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (parse_flag(arg, "--nodes", cli.nodes, NodeId{3}) ||
        parse_flag(arg, "--balancer", cli.balancer) ||
        parse_flag(arg, "--rounds", cli.rounds, Step{0}) ||
        parse_flag(arg, "--stop-after", cli.stop_after, Step{0}) ||
        parse_flag(arg, "--checkpoint-interval", cli.checkpoint_interval,
                   Step{0}) ||
        parse_flag(arg, "--metrics-interval", cli.metrics_interval,
                   Step{0}) ||
        parse_flag(arg, "--cap", cli.admission_cap, Load{1}) ||
        parse_flag(arg, "--checkpoint", cli.checkpoint_path) ||
        parse_flag(arg, "--csv", cli.csv_path) ||
        parse_flag(arg, "--metrics-file", cli.metrics_file) ||
        parse_flag(arg, "--trace", cli.trace_file)) {
      continue;
    }
    usage();
  }
  if (!balancer_registered(cli.balancer)) {
    usage(("--balancer=" + cli.balancer).c_str());
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);

  const Graph g = make_cycle(cli.nodes);
  const BalancerTraits traits = find_balancer_traits(cli.balancer);
  std::unique_ptr<Balancer> balancer =
      find_balancer_factory(cli.balancer)(/*seed=*/7);
  Engine engine(g, EngineConfig{.self_loops = std::max(
                                    traits.min_loops(g.degree()), g.degree())},
                *balancer,
                LoadVector(static_cast<std::size_t>(g.num_nodes()), 0));

  // Admission-limited Poisson demand: uniform churn, with arrivals beyond
  // the per-round cap queued per node in the FIFO ring (part of the
  // snapshot).
  PoissonWorkload inner(
      PoissonWorkload::Params{.arrival_rate = 0.08, .departure_rate = 0.05});
  AdmissionQueue workload(inner,
                          AdmissionQueue::Params{.round_cap = cli.admission_cap});
  workload.reset(g.num_nodes(), /*seed=*/42);
  engine.set_workload(&workload);

  SteadyStateTracker tracker(SteadyOptions{.window = 64, .warmup = 32});

  // Resuming iff a checkpoint file already exists: the CSV then reopens
  // in append mode (no second header) so the concatenated stream matches
  // an uninterrupted run byte-for-byte.
  const bool resuming = !cli.checkpoint_path.empty() &&
                        std::ifstream(cli.checkpoint_path).good();
  std::ofstream csv;
  if (!cli.csv_path.empty()) {
    csv.open(cli.csv_path, resuming ? std::ios::app : std::ios::trunc);
    if (!csv.good()) {
      std::fprintf(stderr, "service_demo: cannot open %s\n",
                   cli.csv_path.c_str());
      return 1;
    }
  }

  BalancerService::install_signal_handlers();
  BalancerService::clear_signal_requests();
  BalancerService service(
      engine,
      BalancerService::Options{
          .checkpoint_path = cli.checkpoint_path,
          .checkpoint_interval = cli.checkpoint_interval,
          .metrics_interval = cli.metrics_interval,
          .metrics_out = &std::cerr,
          .metrics_file = cli.metrics_file,
          .trace_file = cli.trace_file,
          .csv = csv.is_open() ? &csv : nullptr,
          .log = &std::cerr,
          .stop_after = cli.stop_after,
      },
      &tracker);
  if (csv.is_open() && !service.restored()) {
    csv << service.csv_header() << '\n';
  }

  const Step remaining = std::max<Step>(0, cli.rounds - engine.time());
  service.run(remaining);
  service.dump_metrics(std::cerr);
  return 0;
}
