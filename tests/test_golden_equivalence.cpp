// Golden-equivalence gates for the round-kernel refactor:
//
//  1. For EVERY balancer in the registry, the lazy/batched engine path
//     (no observer, so decide_range kernels write straight into the plain
//     next-load buffer: gathers store each slot once, the rest add into a
//     zero-filled buffer) must produce load trajectories
//     identical — step by step — to the per-node row path (observer
//     attached, records filled through Balancer::decide, the engine's
//     golden reference semantics).
//  2. Pooled rounds (the round plan, one part per worker) must produce
//     trajectories identical to the serial path for every registry
//     balancer at thread counts {1, 2, 8} — the determinism claim of the
//     plan (parts write only their own slices and staged cut flows).
//  3. Pooled gather rounds (SEND(floor) on the cycle and torus, no
//     observer) store every slot of every part straight into the
//     next-load buffer: byte-identical to serial step() at every pool
//     size, with no row matrix ever allocated, and a kernel that leaves a
//     slot unwritten is refused exactly as on the serial path.
//
// Any decide_range override that drifts from its decide() ground truth by
// even one token on one node in one step fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

constexpr Step kSteps = 220;  // > 200, several full rotor revolutions

/// Forces the materializing path without recording anything.
class NoopObserver : public StepObserver {
 public:
  void on_step(Step, const Graph&, int, std::span<const Load>,
               std::span<const Load>, std::span<const Load>) override {}
};

struct GoldenGraph {
  const char* label;
  Graph graph;
};

std::vector<GoldenGraph> golden_graphs() {
  std::vector<GoldenGraph> out;
  out.push_back({"cycle", make_cycle(48)});
  out.push_back({"torus", make_torus2d(8, 6)});
  out.push_back({"hypercube", make_hypercube(4)});
  out.push_back({"expander", make_margulis(5)});
  return out;
}

TEST(GoldenEquivalence, LazyPathMatchesMaterializedForEveryBalancer) {
  const auto graphs = golden_graphs();
  for (const std::string& name : registered_balancer_names()) {
    const BalancerFactory factory = find_balancer_factory(name);
    const BalancerTraits traits = find_balancer_traits(name);
    for (const GoldenGraph& gg : graphs) {
      const Graph& g = gg.graph;
      const int d = g.degree();
      // d° axis: the kernels' keep-local arithmetic depends on d°, so the
      // theorems' d° = d regime alone would not guard the d° < d runs
      // (bench_thm23_minloops ships those on the lazy path). Candidates
      // incompatible with the balancer's traits are skipped (ROTOR-
      // ROUTER* pins d° == d, SEND(nearest) needs d° >= d).
      for (int d_loops : {0, 1, d}) {
        if (traits.exact_d_loops && d_loops != d) continue;
        if (d_loops < traits.min_loops(d)) continue;
        const std::uint64_t seed = 7;
        const LoadVector initial =
            random_initial(g.num_nodes(), 500, /*seed=*/99);

        std::unique_ptr<Balancer> lazy_b = factory(seed);
        std::unique_ptr<Balancer> gold_b = factory(seed);
        const EngineConfig config{.self_loops = d_loops};
        Engine lazy(g, config, *lazy_b, initial);
        Engine gold(g, config, *gold_b, initial);
        NoopObserver force_materialize;
        gold.add_observer(force_materialize);

        const auto where = [&] {
          return name + " on " + gg.label + " with d_loops=" +
                 std::to_string(d_loops);
        };
        for (Step t = 0; t < kSteps; ++t) {
          lazy.step();
          gold.step();
          ASSERT_EQ(lazy.loads(), gold.loads())
              << where() << " diverged at step " << t + 1;
        }
        EXPECT_EQ(lazy.min_load_seen(), gold.min_load_seen()) << where();
        EXPECT_EQ(lazy.discrepancy(), gold.discrepancy()) << where();
        // The lazy engine must have stayed lazy and the golden engine
        // materialized.
        EXPECT_FALSE(lazy.flows_materialized()) << where();
        EXPECT_TRUE(gold.flows_materialized()) << where();
      }
    }
  }
}

/// Forces the pre-kernel ground-truth path: delegates decide()/state to
/// an inner balancer but inherits the *default* prepare_round and
/// decide_range, so every round is decided through one decide() call per
/// node with the full oversend audit — the semantics every kernel
/// override must reproduce exactly.
class DefaultPathOnly : public Balancer {
 public:
  explicit DefaultPathOnly(std::unique_ptr<Balancer> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void reset(const Graph& g, int d_loops) override {
    inner_->reset(g, d_loops);
  }
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override {
    inner_->decide(u, load, t, flows);
  }
  bool allows_negative() const override { return inner_->allows_negative(); }

 private:
  std::unique_ptr<Balancer> inner_;
};

TEST(GoldenEquivalence, KernelsMatchTheDecideGroundTruth) {
  // Both engine paths now run hand-written kernels, so row ≡ scatter
  // alone would not catch a formula bug present in both. This gate pins
  // them to the decide() ground truth: trajectories AND full flow
  // matrices (self-loop slots included) must match the default
  // decide()-per-node path for every registry balancer.
  class Recorder : public StepObserver {
   public:
    std::vector<LoadVector> flows;
    void on_step(Step, const Graph&, int, std::span<const Load>,
                 std::span<const Load> f, std::span<const Load>) override {
      flows.emplace_back(f.begin(), f.end());
    }
  };
  const auto graphs = golden_graphs();
  for (const std::string& name : registered_balancer_names()) {
    const BalancerFactory factory = find_balancer_factory(name);
    const BalancerTraits traits = find_balancer_traits(name);
    for (const GoldenGraph& gg : graphs) {
      const Graph& g = gg.graph;
      const int d = g.degree();
      for (int d_loops : {0, d}) {
        if (traits.exact_d_loops && d_loops != d) continue;
        if (d_loops < traits.min_loops(d)) continue;
        const std::uint64_t seed = 7;
        const LoadVector initial =
            random_initial(g.num_nodes(), 500, /*seed=*/99);

        std::unique_ptr<Balancer> kernel_b = factory(seed);
        DefaultPathOnly truth_b(factory(seed));
        const EngineConfig config{.self_loops = d_loops};
        Engine kernel(g, config, *kernel_b, initial);
        Engine truth(g, config, truth_b, initial);
        Recorder kernel_rec, truth_rec;
        kernel.add_observer(kernel_rec);  // row kernels
        truth.add_observer(truth_rec);    // decide() per node

        const auto where = [&] {
          return name + " on " + gg.label + " with d_loops=" +
                 std::to_string(d_loops);
        };
        for (Step t = 0; t < 60; ++t) {
          kernel.step();
          truth.step();
          ASSERT_EQ(kernel.loads(), truth.loads())
              << where() << " diverged from decide() at step " << t + 1;
        }
        EXPECT_EQ(kernel_rec.flows, truth_rec.flows)
            << where() << ": row kernel wrote a different flow matrix than "
            << "decide()";
      }
    }
  }
}

TEST(GoldenEquivalence, SerialMatchesIntraRoundParallelForEveryBalancer) {
  constexpr Step kParallelSteps = 60;  // several rotor revolutions
  const auto graphs = golden_graphs();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::string& name : registered_balancer_names()) {
      const BalancerFactory factory = find_balancer_factory(name);
      const BalancerTraits traits = find_balancer_traits(name);
      for (const GoldenGraph& gg : graphs) {
        const Graph& g = gg.graph;
        const int d = g.degree();
        for (int d_loops : {0, d}) {
          if (traits.exact_d_loops && d_loops != d) continue;
          if (d_loops < traits.min_loops(d)) continue;
          const std::uint64_t seed = 7;
          const LoadVector initial =
              random_initial(g.num_nodes(), 500, /*seed=*/99);

          std::unique_ptr<Balancer> serial_b = factory(seed);
          std::unique_ptr<Balancer> par_b = factory(seed);
          const EngineConfig config{.self_loops = d_loops};
          Engine serial(g, config, *serial_b, initial);
          Engine parallel(g, config, *par_b, initial);
          parallel.set_thread_pool(&pool);

          const auto where = [&] {
            return name + " on " + gg.label + " with d_loops=" +
                   std::to_string(d_loops) + " threads=" +
                   std::to_string(threads);
          };
          for (Step t = 0; t < kParallelSteps; ++t) {
            serial.step();
            parallel.step_parallel();
            ASSERT_EQ(serial.loads(), parallel.loads())
                << where() << " diverged at step " << t + 1;
          }
          EXPECT_EQ(serial.min_load_seen(), parallel.min_load_seen())
              << where();
          EXPECT_EQ(serial.discrepancy(), parallel.discrepancy()) << where();
        }
      }
    }
  }
}

TEST(GoldenEquivalence, ImplicitTopologyMatchesGenericTablesForEveryBalancer) {
  // The implicit fast path (structure-tagged graphs: computed neighbors,
  // stencil/gather kernel shapes) against the same adjacency with the
  // tag stripped (generic table kernels — the pre-topology behavior),
  // for every registry balancer on cycle/torus/hypercube, serial and at
  // pool sizes {1, 2, 8}. Byte-identical trajectories or the fast path
  // does not ship.
  constexpr Step kSteps = 120;  // several rotor revolutions
  std::vector<GoldenGraph> tagged;
  tagged.push_back({"cycle", make_cycle(48)});
  tagged.push_back({"torus2d", make_torus2d(8, 6)});
  tagged.push_back({"torus3d", make_torus({4, 3, 5})});
  tagged.push_back({"hypercube", make_hypercube(4)});
  for (int threads : {0, 1, 2, 8}) {  // 0 = pure serial step()
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (const std::string& name : registered_balancer_names()) {
      const BalancerFactory factory = find_balancer_factory(name);
      const BalancerTraits traits = find_balancer_traits(name);
      for (const GoldenGraph& gg : tagged) {
        const Graph& g = gg.graph;
        const Graph generic = g.without_structure();
        ASSERT_EQ(generic.structure().kind, GraphStructure::kGeneric);
        const int d = g.degree();
        for (int d_loops : {0, d}) {
          if (traits.exact_d_loops && d_loops != d) continue;
          if (d_loops < traits.min_loops(d)) continue;
          const std::uint64_t seed = 7;
          const LoadVector initial =
              random_initial(g.num_nodes(), 500, /*seed=*/99);

          std::unique_ptr<Balancer> imp_b = factory(seed);
          std::unique_ptr<Balancer> gen_b = factory(seed);
          const EngineConfig config{.self_loops = d_loops};
          Engine implicit(g, config, *imp_b, initial);
          Engine generic_e(generic, config, *gen_b, initial);
          if (pool) {
            implicit.set_thread_pool(pool.get());
            generic_e.set_thread_pool(pool.get());
          }

          const auto where = [&] {
            return name + " on " + gg.label + " with d_loops=" +
                   std::to_string(d_loops) + " threads=" +
                   std::to_string(threads);
          };
          for (Step t = 0; t < kSteps; ++t) {
            implicit.step_parallel();
            generic_e.step_parallel();
            ASSERT_EQ(implicit.loads(), generic_e.loads())
                << where() << " diverged at step " << t + 1;
          }
          EXPECT_EQ(implicit.min_load_seen(), generic_e.min_load_seen())
              << where();
          EXPECT_EQ(implicit.discrepancy(), generic_e.discrepancy())
              << where();
        }
      }
    }
  }
}

TEST(GoldenEquivalence, ParallelRoundsFeedObserversTheSameFlowMatrix) {
  // An observer round stepped through a pool runs on rows too: records
  // and post-loads must match the serial materialized step exactly.
  class Recorder : public StepObserver {
   public:
    std::vector<LoadVector> flows, posts;
    void on_step(Step, const Graph&, int, std::span<const Load>,
                 std::span<const Load> f, std::span<const Load> p) override {
      flows.emplace_back(f.begin(), f.end());
      posts.emplace_back(p.begin(), p.end());
    }
  };
  const Graph g = make_torus2d(8, 6);
  const LoadVector initial = random_initial(g.num_nodes(), 300, 4);
  ThreadPool pool(4);
  for (Algorithm a : {Algorithm::kRotorRouter, Algorithm::kSendFloor}) {
    auto serial_b = make_balancer(a, 3);
    auto par_b = make_balancer(a, 3);
    const EngineConfig config{.self_loops = g.degree()};
    Engine serial(g, config, *serial_b, initial);
    Engine parallel(g, config, *par_b, initial);
    Recorder serial_rec, par_rec;
    serial.add_observer(serial_rec);
    parallel.add_observer(par_rec);
    parallel.set_thread_pool(&pool);
    for (Step t = 0; t < 40; ++t) {
      serial.step();
      parallel.step_parallel();
    }
    EXPECT_EQ(serial_rec.flows, par_rec.flows) << algorithm_name(a);
    EXPECT_EQ(serial_rec.posts, par_rec.posts) << algorithm_name(a);
  }
}

TEST(GoldenEquivalence, PooledGatherRoundsMatchSerialWithoutRows) {
  // Sizes 2^k and 2^k + 1 (the range split lands on and off vector
  // boundaries) plus a cycle smaller than the largest pool; d° = 1 makes
  // d⁺ odd, which keeps the scalar kernels in play beside the AVX2 ones.
  constexpr Step kSteps = 40;
  std::vector<GoldenGraph> graphs;
  graphs.push_back({"cycle1024", make_cycle(1024)});
  graphs.push_back({"cycle1025", make_cycle(1025)});
  graphs.push_back({"cycle3", make_cycle(3)});
  graphs.push_back({"torus32x32", make_torus2d(32, 32)});
  graphs.push_back({"torus25x41", make_torus2d(25, 41)});
  for (int threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    for (const GoldenGraph& gg : graphs) {
      const Graph& g = gg.graph;
      for (int d_loops : {0, 1, g.degree()}) {
        const LoadVector initial =
            random_initial(g.num_nodes(), 500, /*seed=*/99);
        auto serial_b = make_balancer(Algorithm::kSendFloor, 7);
        auto pooled_b = make_balancer(Algorithm::kSendFloor, 7);
        const EngineConfig config{.self_loops = d_loops};
        Engine serial(g, config, *serial_b, initial);
        Engine pooled(g, config, *pooled_b, initial);
        pooled.set_thread_pool(&pool);
        const auto where = [&] {
          return std::string(gg.label) + " with d_loops=" +
                 std::to_string(d_loops) +
                 " threads=" + std::to_string(threads);
        };
        for (Step t = 0; t < kSteps; ++t) {
          serial.step();
          pooled.step_parallel();
          ASSERT_EQ(serial.loads(), pooled.loads())
              << where() << " diverged at step " << t + 1;
          ASSERT_EQ(serial.discrepancy(), pooled.discrepancy()) << where();
        }
        EXPECT_EQ(serial.min_load_seen(), pooled.min_load_seen()) << where();
        EXPECT_FALSE(pooled.flows_materialized()) << where();
        EXPECT_FALSE(serial.flows_materialized()) << where();
      }
    }
  }
}

/// How KeepsLoadsGather breaks the gather contract.
enum class GatherFault {
  kNone,
  kSkipLast,     ///< leaves the last next-load slot of each range unwritten
  kLeak,         ///< emits one token fewer at node 0
  kDoubleWrite,  ///< stores slot `first` twice, skips `first + 1`, and
                 ///< still reports the whole range as covered
};

/// Promises a parallel-safe gather and keeps every node's load, folding
/// min/max/Σ of every value it emits, except as `fault` says.
class KeepsLoadsGather : public Balancer {
 public:
  explicit KeepsLoadsGather(bool skip)
      : KeepsLoadsGather(skip ? GatherFault::kSkipLast : GatherFault::kNone) {}
  explicit KeepsLoadsGather(GatherFault fault) : fault_(fault) {}
  std::string name() const override { return "test:keeps-loads-gather"; }
  void reset(const Graph&, int) override {}
  void decide(NodeId, Load, Step, std::span<Load> flows) override {
    std::fill(flows.begin(), flows.end(), 0);
  }
  bool gathers(const Graph&) const override { return true; }
  bool parallel_decide_safe() const override { return true; }
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step, FlowSink& sink) override {
    NodeId covered = last - first;
    LoadScan emitted;
    for (NodeId u = first; u < last; ++u) {
      Load x = loads[static_cast<std::size_t>(u)];
      NodeId slot = u;
      if (fault_ == GatherFault::kSkipLast && u == last - 1) {
        --covered;
        continue;
      }
      if (fault_ == GatherFault::kLeak && u == 0) --x;
      if (fault_ == GatherFault::kDoubleWrite && u == first + 1) slot = first;
      sink.next()[static_cast<std::size_t>(slot)] = x;
      emitted.merge({x, x, x});
    }
    sink.merge_emit_stats(emitted, covered);
  }

 private:
  GatherFault fault_;
};

TEST(GoldenEquivalence, PooledGatherRoundThatSkipsASlotIsRefused) {
  const Graph g = make_cycle(64);
  const LoadVector initial = random_initial(g.num_nodes(), 100, 3);
  ThreadPool pool(4);
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skipping kernel" : "covering kernel");
    KeepsLoadsGather balancer(skip);
    Engine e(g, EngineConfig{.self_loops = 2}, balancer, initial);
    e.set_thread_pool(&pool);
    if (!skip) {
      for (int i = 0; i < 3; ++i) e.step_parallel();
      EXPECT_EQ(e.loads(), initial);
      EXPECT_FALSE(e.flows_materialized());
      continue;
    }
    try {
      e.step_parallel();
      ADD_FAILURE() << "a pooled round with an unwritten slot was accepted";
    } catch (const invariant_error& err) {
      EXPECT_NE(std::string(err.what()).find(
                    "gather kernel did not write every next-load slot"),
                std::string::npos)
          << err.what();
    }
    EXPECT_FALSE(e.flows_materialized());
  }
}

// The per-round audit checks the Σ the gather folded into its emit. A
// kernel that drops a token fails on that round. One that stores a slot
// twice and skips the next emits the right Σ but leaves a buffer whose Σ
// is wrong, and the next round's sweep carries that wrong Σ, so it fails
// one round later. A correct gather stays green across the ledger's full
// rescans at t = 64, 128 and 192.
TEST(GoldenEquivalence, EmitFoldedAuditCatchesBrokenGathers) {
  const Graph g = make_cycle(64);
  LoadVector initial(64);
  for (std::size_t u = 0; u < initial.size(); ++u) {
    initial[u] = static_cast<Load>(10 + 3 * u);
  }
  ThreadPool pool(4);
  const EngineConfig config{.self_loops = 2};
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "flat pooled" : "flat serial");
    ThreadPool* const attached = pooled ? &pool : nullptr;
    {
      KeepsLoadsGather correct(GatherFault::kNone);
      Engine e(g, config, correct, initial);
      e.set_thread_pool(attached);
      EXPECT_NO_THROW(e.run(200));
      EXPECT_EQ(e.time(), 200);
      EXPECT_EQ(e.loads(), initial);
      EXPECT_FALSE(e.flows_materialized());
    }
    for (const GatherFault fault :
         {GatherFault::kLeak, GatherFault::kDoubleWrite}) {
      const bool leak = fault == GatherFault::kLeak;
      SCOPED_TRACE(leak ? "leak" : "double write");
      KeepsLoadsGather broken(fault);
      Engine e(g, config, broken, initial);
      e.set_thread_pool(attached);
      // The leak must throw on round 1; the double write on round 1 or 2.
      const Step last_round = leak ? 1 : 2;
      Step rounds = 0;
      std::string what;
      while (rounds < last_round && what.empty()) {
        ++rounds;
        try {
          e.step_parallel();
        } catch (const invariant_error& err) {
          what = err.what();
        }
      }
      EXPECT_NE(what.find("token conservation violated"), std::string::npos)
          << "no conservation failure within " << last_round
          << " round(s); last error: " << what;
      EXPECT_LE(rounds, last_round);
    }
  }
}

}  // namespace
}  // namespace dlb
