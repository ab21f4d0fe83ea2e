// torus_balancing: good s-balancers on a mesh/torus NoC-style topology.
//
// Scenario: a 2-D torus of compute tiles (the classic diffusion
// load-balancing setting) with a hot region — the left half of the mesh
// holds all the work. We run ROTOR-ROUTER* and SEND([x/d⁺]) (good
// s-balancers, Theorem 3.3) and print a live height-map of the load as
// it flattens, plus the φ-potential trajectory that drives the
// Theorem 3.3 proof.
//
// Usage: torus_balancing [width] [height]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "analysis/bounds.hpp"
#include "analysis/potentials.hpp"
#include "balancers/rotor_router_star.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace dlb;

/// Positional argument i, or `fallback` when absent; a malformed one
/// prints usage and exits 2.
NodeId positional(int argc, char** argv, int i, NodeId fallback) {
  if (argc <= i) return fallback;
  const std::optional<NodeId> v = parse_number<NodeId>(argv[i]);
  if (!v) {
    std::fprintf(stderr, "usage: torus_balancing [width] [height]\n");
    std::exit(2);
  }
  return *v;
}

/// Renders loads as a coarse ASCII height map (one char per tile).
void render(const LoadVector& loads, NodeId w, NodeId h, double avg) {
  static const char* kShades = " .:-=+*#%@";
  for (NodeId y = 0; y < h; ++y) {
    std::fputs("  ", stdout);
    for (NodeId x = 0; x < w; ++x) {
      const double rel =
          static_cast<double>(loads[static_cast<std::size_t>(y * w + x)]) /
          (2.0 * avg);
      const int shade = std::clamp(static_cast<int>(rel * 9.0), 0, 9);
      std::fputc(kShades[shade], stdout);
    }
    std::fputc('\n', stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const NodeId w = positional(argc, argv, 1, 24);
  const NodeId h = positional(argc, argv, 2, 12);

  const Graph g = make_torus2d(w, h);
  const int d = g.degree();
  const double mu = 1.0 - lambda2_torus({w, h}, d);

  // Hot region: left half of the mesh holds 200 tokens per tile.
  LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId y = 0; y < h; ++y) {
    for (NodeId x = 0; x < w / 2; ++x) {
      initial[static_cast<std::size_t>(y * w + x)] = 200;
    }
  }
  const double avg = average_load(initial);
  const Step t_bal = balancing_time(g.num_nodes(), discrepancy(initial), mu);

  RotorRouterStar balancer(3);
  Engine e(g, EngineConfig{.self_loops = d}, balancer, initial);

  std::printf("torus_balancing: %s (d=%d, µ=%.4f), ROTOR-ROUTER*, T=%lld\n",
              g.name().c_str(), d, mu, static_cast<long long>(t_bal));

  const int d_plus = 2 * d;
  const Load c_level = static_cast<Load>(avg / d_plus) + 1;
  const Step frames[] = {0, t_bal / 16, t_bal / 4, t_bal};
  Step done = 0;
  for (Step frame : frames) {
    e.run(frame - done);
    done = frame;
    std::printf("\n t = %-6lld  discrepancy = %-6lld  phi(c=%lld) = %lld\n",
                static_cast<long long>(e.time()),
                static_cast<long long>(e.discrepancy()),
                static_cast<long long>(c_level),
                static_cast<long long>(
                    phi_potential(e.loads(), c_level, d_plus)));
    render(e.loads(), w, h, avg);
  }

  const Load thm33 = bound_thm33_discrepancy(1, d_plus, d);
  std::printf("\nfinal discrepancy %lld vs Thm 3.3 level (2δ+1)d⁺+4d° = %lld"
              " — O(d), independent of the mesh size.\n",
              static_cast<long long>(e.discrepancy()),
              static_cast<long long>(thm33));
  return 0;
}
