// dlb_sim: command-line driver — run any algorithm on any graph family
// and emit the discrepancy trajectory as CSV.
//
// Usage:
//   dlb_sim --graph cycle:64 --algo rotor --loops 2 --k 1000
//           --multiplier 2.0 --samples 16 --seed 7
//
// Graph specs:   cycle:N | torus:WxH | hypercube:DIM | complete:N |
//                margulis:M | random:N:D | clique:N:D
// Algorithms:    fixed | rand-extra | rand-round | mimic | floor |
//                nearest | rotor | star
// Output: one CSV row per sample (t, discrepancy, balancedness), then a
// summary block with the audited fairness class.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/fairness.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace dlb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: dlb_sim --graph FAMILY:ARGS --algo NAME [--loops N] "
               "[--k N] [--multiplier F] [--samples N] [--seed N]\n"
               "  graphs: cycle:N torus:WxH hypercube:D complete:N "
               "margulis:M random:N:D clique:N:D\n"
               "  algos:  fixed rand-extra rand-round mimic bounded floor "
               "nearest rotor star\n");
  std::exit(2);
}

/// A numeric argument; a malformed one prints usage and exits 2.
template <class T>
T number_arg(const std::string& s) {
  const std::optional<T> v = parse_number<T>(s);
  if (!v) usage(("malformed number '" + s + "'").c_str());
  return *v;
}

Graph parse_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage("graph spec needs FAMILY:ARGS");
  const std::string family = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  const auto int_arg = number_arg<int>;

  if (family == "cycle") return make_cycle(int_arg(args));
  if (family == "hypercube") return make_hypercube(int_arg(args));
  if (family == "complete") return make_complete(int_arg(args));
  if (family == "margulis") return make_margulis(int_arg(args));
  if (family == "torus") {
    const auto x = args.find('x');
    if (x == std::string::npos) usage("torus spec is torus:WxH");
    return make_torus2d(int_arg(args.substr(0, x)),
                        int_arg(args.substr(x + 1)));
  }
  if (family == "random" || family == "clique") {
    const auto c2 = args.find(':');
    if (c2 == std::string::npos) usage("spec is family:N:D");
    const NodeId n = int_arg(args.substr(0, c2));
    const int d = int_arg(args.substr(c2 + 1));
    return family == "random" ? make_random_regular(n, d, seed)
                              : make_clique_circulant(n, d);
  }
  usage("unknown graph family");
}

Algorithm parse_algo(const std::string& name) {
  static const std::map<std::string, Algorithm> kMap = {
      {"fixed", Algorithm::kFixedPriority},
      {"rand-extra", Algorithm::kRandomizedExtra},
      {"rand-round", Algorithm::kRandomizedRounding},
      {"mimic", Algorithm::kContinuousMimic},
      {"bounded", Algorithm::kBoundedError},
      {"floor", Algorithm::kSendFloor},
      {"nearest", Algorithm::kSendRound},
      {"rotor", Algorithm::kRotorRouter},
      {"star", Algorithm::kRotorRouterStar},
  };
  const auto it = kMap.find(name);
  if (it == kMap.end()) usage("unknown algorithm");
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_spec, algo_name;
  int loops = -1;
  Load k = 1000;
  double multiplier = 1.0;
  int samples = 8;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--graph") graph_spec = next();
    else if (a == "--algo") algo_name = next();
    else if (a == "--loops") loops = number_arg<int>(next());
    else if (a == "--k") k = number_arg<Load>(next());
    else if (a == "--multiplier") multiplier = number_arg<double>(next());
    else if (a == "--samples") samples = number_arg<int>(next());
    else if (a == "--seed") seed = number_arg<std::uint64_t>(next());
    else usage(("unknown flag " + a).c_str());
  }
  if (graph_spec.empty() || algo_name.empty()) usage("need --graph and --algo");

  const Graph g = parse_graph(graph_spec, seed);
  const Algorithm algo = parse_algo(algo_name);
  const int d = g.degree();
  if (loops < 0) loops = d;  // the paper's default d° = d
  if (requires_exact_d_loops(algo) && loops != d) usage("star needs --loops d");
  if (loops < min_self_loops(algo, d)) usage("too few self-loops for algo");

  const double mu = spectral_gap(g, loops).gap;
  auto balancer = make_balancer(algo, seed);

  ExperimentSpec spec;
  spec.self_loops = loops;
  spec.time_multiplier = multiplier;
  spec.sample_fractions.clear();
  for (int s = 1; s <= samples; ++s) {
    spec.sample_fractions.push_back(static_cast<double>(s) / samples);
  }

  const LoadVector initial = bimodal_initial(g.num_nodes(), k);
  const ExperimentResult r = run_experiment(g, *balancer, initial, mu, spec);

  std::printf("# %s\n", summarize(r).c_str());
  std::printf("t,discrepancy\n");
  std::printf("0,%lld\n", static_cast<long long>(r.initial_discrepancy));
  for (const auto& [t, disc] : r.samples) {
    std::printf("%lld,%lld\n", static_cast<long long>(t),
                static_cast<long long>(disc));
  }
  std::printf("# fairness: delta=%lld round_fair=%d floor_ok=%d s_eff=%lld "
              "max_remainder=%lld negative=%d\n",
              static_cast<long long>(r.fairness.observed_delta),
              r.fairness.round_fair, r.fairness.floor_condition_ok,
              static_cast<long long>(r.fairness.observed_s),
              static_cast<long long>(r.fairness.max_remainder),
              r.fairness.negative_seen);
  std::printf("# continuous@horizon=%.3g min_load=%lld T=%lld horizon=%lld\n",
              r.continuous_final_discrepancy,
              static_cast<long long>(r.min_load_seen),
              static_cast<long long>(r.t_balance),
              static_cast<long long>(r.horizon));
  return 0;
}
