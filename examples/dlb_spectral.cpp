// dlb_spectral: spectral & time-scale calculator for balancing instances.
//
// Prints, for a graph family and a sweep of self-loop counts: λ₂, the
// spectral gap µ, the balancing-time scale T(K) = 16·log(nK)/µ, the
// mixing unit t_µ = 6·log n/µ, and the paper's discrepancy bounds — the
// numbers one needs to size an experiment before running it.
//
// Usage: dlb_spectral --graph torus:16x16 [--k 1000]
// (graph specs as in dlb_sim)
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/bounds.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace dlb;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dlb_spectral --graph FAMILY:ARGS [--k N] [--seed N]\n"
               "  graphs: cycle:N torus:WxH hypercube:D complete:N "
               "margulis:M random:N:D clique:N:D debruijn:B:D petersen:0\n");
  std::exit(2);
}

/// A numeric argument; a malformed one prints usage and exits 2.
template <class T>
T number_arg(const std::string& s) {
  const std::optional<T> v = parse_number<T>(s);
  if (!v) usage();
  return *v;
}

Graph parse_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage();
  const std::string family = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  const auto int_arg = number_arg<int>;
  if (family == "cycle") return make_cycle(int_arg(args));
  if (family == "hypercube") return make_hypercube(int_arg(args));
  if (family == "complete") return make_complete(int_arg(args));
  if (family == "margulis") return make_margulis(int_arg(args));
  if (family == "petersen") return make_petersen();
  if (family == "torus") {
    const auto x = args.find('x');
    if (x == std::string::npos) usage();
    return make_torus2d(int_arg(args.substr(0, x)),
                        int_arg(args.substr(x + 1)));
  }
  if (family == "random" || family == "clique" || family == "debruijn") {
    const auto c2 = args.find(':');
    if (c2 == std::string::npos) usage();
    const int a = int_arg(args.substr(0, c2));
    const int b = int_arg(args.substr(c2 + 1));
    if (family == "random") return make_random_regular(a, b, seed);
    if (family == "debruijn") return make_debruijn(a, b);
    return make_clique_circulant(a, b);
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_spec;
  Load k = 1000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--graph") graph_spec = next();
    else if (a == "--k") k = number_arg<Load>(next());
    else if (a == "--seed") seed = number_arg<std::uint64_t>(next());
    else usage();
  }
  if (graph_spec.empty()) usage();

  const Graph g = parse_graph(graph_spec, seed);
  const int d = g.degree();
  const NodeId n = g.num_nodes();

  std::printf("%s: n=%d d=%d", g.name().c_str(), n, d);
  if (n <= 2048) {
    std::printf(" diam=%d", diameter(g));
    const auto og = odd_girth(g);
    std::printf(" bipartite=%s odd_girth=%s",
                is_bipartite(g) ? "yes" : "no",
                og ? std::to_string(*og).c_str() : "-");
  }
  std::printf("\n\n%4s %10s %10s %10s %10s %12s %12s %10s\n", "d.o",
              "lambda2", "mu", "T(K)", "t_mu", "rsw_bound", "thm23(i)",
              "thm23(ii)");
  for (int i = 0; i < 86; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);

  for (int d_loops : {1, d / 2, d, 2 * d}) {
    if (d_loops < 1) continue;
    const auto res = spectral_gap(g, d_loops);
    std::printf("%4d %10.6f %10.3e %10lld %10lld %12.1f %12.1f %10.1f\n",
                d_loops, res.lambda2, res.gap,
                static_cast<long long>(balancing_time(n, k, res.gap)),
                static_cast<long long>(mixing_unit(n, res.gap)),
                bound_rsw(d, n, res.gap),
                bound_thm23_sqrt_log(1.0, d, n, res.gap),
                bound_thm23_sqrt_n(1.0, d, n));
  }
  return 0;
}
