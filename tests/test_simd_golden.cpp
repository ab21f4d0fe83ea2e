// Golden SIMD ≡ scalar gate for the AVX2 round kernels.
//
// Contract (util/simd.hpp): a SIMD kernel must be byte-identical to its
// scalar fallback — load trajectories, fused min/max stats, and balancer
// state — on every lane-count/tail combination. Two engines run the same
// configuration in lockstep, one with dlb::simd enabled and one with it
// forced off via set_enabled(); any divergence on any node in any step
// fails. Sizes sweep vector-width multiples, primes, and width±1 so the
// head/interior/tail split of every kernel sees each alignment; pools
// {1, 8} cover the range-split boundaries.
//
// On a host without AVX2 (or a build without -mavx2), set_enabled(true)
// is a documented no-op — both engines run scalar and the suite passes
// vacuously, which is exactly the dispatch layer working.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "balancers/rotor_router.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

/// Restores the process-wide SIMD switch no matter how a test exits.
class SimdGuard {
 public:
  SimdGuard() : was_(simd::enabled()) {}
  ~SimdGuard() { simd::set_enabled(was_); }

 private:
  bool was_;
};

/// Runs `vec` with SIMD on and `ref` with SIMD off in lockstep for
/// `steps` rounds, asserting byte-identical loads and stats each round.
void expect_lockstep(Engine& vec, Engine& ref, ThreadPool* pool, Step steps,
                     const std::string& where) {
  for (Step t = 0; t < steps; ++t) {
    simd::set_enabled(true);
    if (pool) {
      vec.step_parallel();
    } else {
      vec.step();
    }
    simd::set_enabled(false);
    if (pool) {
      ref.step_parallel();
    } else {
      ref.step();
    }
    ASSERT_EQ(vec.loads(), ref.loads())
        << where << " diverged at step " << t + 1;
    // The SIMD kernels publish emit-fused min/max; the scalar engine
    // computes the same stats — they gate together here.
    ASSERT_EQ(vec.discrepancy(), ref.discrepancy())
        << where << " stats diverged at step " << t + 1;
  }
  EXPECT_EQ(vec.min_load_seen(), ref.min_load_seen()) << where;
}

struct SimdGraph {
  std::string label;
  Graph graph;
};

/// Sizes around the 4-lane blocking: multiples, primes, width±1 — on
/// every structured family the AVX2 kernels specialize.
std::vector<SimdGraph> simd_graphs() {
  std::vector<SimdGraph> out;
  for (int n : {3, 4, 5, 7, 8, 61, 63, 64, 65, 67, 128}) {
    out.push_back({"cycle" + std::to_string(n), make_cycle(n)});
  }
  for (auto [r, c] : {std::pair{4, 4}, {5, 3}, {8, 8}, {9, 7}, {16, 5}}) {
    out.push_back({"torus2d_" + std::to_string(r) + "x" + std::to_string(c),
                   make_torus2d(r, c)});
  }
  out.push_back({"torus3d_3x3x4", make_torus({3, 3, 4})});
  out.push_back({"torus3d_4x4x4", make_torus({4, 4, 4})});
  for (int dim : {3, 4, 6, 7}) {
    out.push_back({"hypercube" + std::to_string(dim), make_hypercube(dim)});
  }
  return out;
}

TEST(SimdGolden, EveryBalancerEveryFamilyEveryTail) {
  SimdGuard guard;
  constexpr Step kSteps = 96;
  const auto graphs = simd_graphs();
  for (int threads : {0, 1, 8}) {  // 0 = pure serial step()
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (const std::string& name : registered_balancer_names()) {
      const BalancerFactory factory = find_balancer_factory(name);
      const BalancerTraits traits = find_balancer_traits(name);
      for (const SimdGraph& sg : graphs) {
        const Graph& g = sg.graph;
        const int d = g.degree();
        // d° ∈ {0, 1, d}: d gives the pow2 d⁺ the shift stencils need on
        // cycle/hypercube, 1 forces a non-pow2 d⁺ (d⁺ = 3 on the cycle,
        // exercising the shape gate), 0 the minimal regime.
        for (int d_loops : {0, 1, d}) {
          if (traits.exact_d_loops && d_loops != d) continue;
          if (d_loops < traits.min_loops(d)) continue;
          const LoadVector initial =
              random_initial(g.num_nodes(), 500, /*seed=*/99);
          auto vec_b = factory(/*seed=*/7);
          auto ref_b = factory(/*seed=*/7);
          const EngineConfig config{.self_loops = d_loops};
          Engine vec(g, config, *vec_b, initial);
          Engine ref(g, config, *ref_b, initial);
          if (pool) {
            vec.set_thread_pool(pool.get());
            ref.set_thread_pool(pool.get());
          }
          expect_lockstep(vec, ref, pool.get(), kSteps,
                          name + " on " + sg.label + " d_loops=" +
                              std::to_string(d_loops) + " threads=" +
                              std::to_string(threads));
        }
      }
    }
  }
}

TEST(SimdGolden, HugeLoadsFallBackPerBlock) {
  // Loads beyond the exact int64↔double conversion range (|x| >= 2^51)
  // must route their 4-lane block to the scalar body without touching
  // state — the trajectory stays identical to the all-scalar run.
  SimdGuard guard;
  for (Algorithm a :
       {Algorithm::kBoundedError, Algorithm::kContinuousMimic,
        Algorithm::kSendFloor}) {
    const Graph g = make_cycle(24);
    LoadVector initial(24, 3);
    initial[5] = (Load{1} << 52) + 11;  // mid-block, forces the fallback
    initial[17] = (Load{1} << 55) + 7;
    auto vec_b = make_balancer(a, 7);
    auto ref_b = make_balancer(a, 7);
    const EngineConfig config{.self_loops = g.degree()};
    Engine vec(g, config, *vec_b, initial);
    Engine ref(g, config, *ref_b, initial);
    expect_lockstep(vec, ref, nullptr, 48,
                    std::string(algorithm_name(a)) + " huge loads");
  }
}

TEST(SimdGolden, RotorNaturalOrderMatchesForcedTableWalk) {
  // Seed 0 keeps the natural port order; prescribing the identity
  // permutation through set_port_order names the same dealing order
  // explicitly. Both must produce the same rotors and trajectories
  // everywhere.
  SimdGuard guard;
  const auto graphs = simd_graphs();
  for (const SimdGraph& sg : graphs) {
    const Graph& g = sg.graph;
    const int d = g.degree();
    for (int d_loops : {0, d}) {
      const int d_plus = d + d_loops;
      RotorRouter natural(/*seed=*/0);
      RotorRouter prescribed(/*seed=*/0);
      std::vector<std::int32_t> identity(
          static_cast<std::size_t>(g.num_nodes()) *
          static_cast<std::size_t>(d_plus));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        for (int k = 0; k < d_plus; ++k) {
          identity[static_cast<std::size_t>(u) * d_plus +
                   static_cast<std::size_t>(k)] = k;
        }
      }
      prescribed.set_port_order(identity);
      const LoadVector initial = random_initial(g.num_nodes(), 500, 99);
      const EngineConfig config{.self_loops = d_loops};
      Engine nat_e(g, config, natural, initial);
      Engine pre_e(g, config, prescribed, initial);
      const std::string where =
          "rotor natural-vs-prescribed on " + sg.label + " d_loops=" +
          std::to_string(d_loops);
      for (Step t = 0; t < 96; ++t) {
        nat_e.step();
        pre_e.step();
        ASSERT_EQ(nat_e.loads(), pre_e.loads())
            << where << " diverged at step " << t + 1;
      }
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        ASSERT_EQ(natural.rotor(u), prescribed.rotor(u))
            << where << " node " << u;
      }
    }
  }
}

TEST(SimdGolden, DispatchReportsConsistentState) {
  SimdGuard guard;
  // enabled() can never be true without compiled support, and the test
  // hook round-trips.
  if (!simd::compiled()) {
    EXPECT_FALSE(simd::enabled());
    simd::set_enabled(true);
    EXPECT_FALSE(simd::enabled());
    return;
  }
  simd::set_enabled(false);
  EXPECT_FALSE(simd::enabled());
  simd::set_enabled(true);
  // May still be false on a pre-AVX2 CPU; either way it must be sticky.
  const bool on = simd::enabled();
  simd::set_enabled(on);
  EXPECT_EQ(simd::enabled(), on);
}

}  // namespace
}  // namespace dlb
