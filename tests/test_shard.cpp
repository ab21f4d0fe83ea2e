// Golden-equivalence gates for the sharded round engine:
//
//  1. For EVERY balancer in the registry, on every structured family plus
//     a generic expander and a random regular graph, a k-shard
//     ShardedEngine run (k ∈ {1, 2, 3, 8}) must produce load trajectories
//     byte-identical — step by step — to the flat Engine, serially and at
//     pool sizes {1, 8}. Interior runs go through the balancer's
//     decide_range, boundary nodes through decide(), and cut flows through
//     the channel — for SEND(floor) on cycle/torus as a gather (boundary
//     nodes pull), for everything else as a multi-touch scatter (a
//     balancer that overrides only decide() is pinned separately).
//  2. The same identity must hold under online workloads (static is case
//     1; Poisson churn and the adversarial argmax injector exercise the
//     dense, sparse, and gathered-prepare paths), ledger included.
//  3. The partition arithmetic itself (owner inversion) and the edge
//     cut's interior runs are pinned by direct property checks.
//
// One token of drift on one node in one round fails here — the shard
// count must be an execution detail, never an observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "graph/topology.hpp"
#include "shard/channel.hpp"
#include "shard/sharded_engine.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

struct ShardGraph {
  const char* label;
  Graph graph;
};

std::vector<ShardGraph> shard_graphs() {
  std::vector<ShardGraph> out;
  out.push_back({"cycle", make_cycle(48)});
  out.push_back({"torus2d", make_torus2d(8, 6)});
  out.push_back({"torus3d", make_torus({4, 3, 5})});
  out.push_back({"hypercube", make_hypercube(4)});
  out.push_back({"expander", make_margulis(5)});
  // A generic graph cuts everywhere: short interior runs
  // alternate with boundary nodes, and a sequential RNG stream crosses
  // both decide paths.
  out.push_back({"random-regular", make_random_regular(200, 4, 17)});
  return out;
}

TEST(ShardPartitionTest, OwnerInvertsTheBalancedSplit) {
  for (const NodeId n : {1, 7, 48, 100, 257}) {
    for (const int k : {1, 2, 3, 7, 8}) {
      if (k > n) continue;
      const ShardPartition part(n, k);
      NodeId covered = 0;
      for (int s = 0; s < k; ++s) {
        ASSERT_EQ(part.begin(s), covered);
        ASSERT_GE(part.size(s), n / k);
        ASSERT_LE(part.size(s), n / k + 1);
        for (NodeId u = part.begin(s); u < part.end(s); ++u) {
          ASSERT_EQ(part.owner(u), s) << "n=" << n << " k=" << k << " u=" << u;
        }
        covered = part.end(s);
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ShardChannelTest, DrainDeliversAscendingSendersInPostOrder) {
  InProcessShardChannel ch(3);
  const auto bytes = [](std::initializer_list<int> vals) {
    std::vector<std::byte> out;
    for (int v : vals) out.push_back(static_cast<std::byte>(v));
    return out;
  };
  const auto b2 = bytes({20, 21});
  const auto b0 = bytes({1});
  const auto b0b = bytes({2, 3});
  ch.post(2, 1, ShardTag::kFlows, b2);
  ch.post(0, 1, ShardTag::kFlows, b0);
  ch.post(0, 1, ShardTag::kFlows, b0b);  // appends to the same stream
  ch.post(0, 0, ShardTag::kFlows, b0);   // other dest: untouched
  std::vector<std::pair<int, std::vector<std::byte>>> got;
  ch.drain(1, ShardTag::kFlows, [&](int from, std::span<const std::byte> s) {
    got.emplace_back(from, std::vector<std::byte>(s.begin(), s.end()));
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 0);
  EXPECT_EQ(got[0].second, bytes({1, 2, 3}));
  EXPECT_EQ(got[1].first, 2);
  EXPECT_EQ(got[1].second, b2);
  // Streams were consumed.
  int calls = 0;
  ch.drain(1, ShardTag::kFlows, [&](int, std::span<const std::byte>) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  // Shard 0's own stream is still pending.
  ch.drain(0, ShardTag::kFlows, [&](int from, std::span<const std::byte> s) {
    ++calls;
    EXPECT_EQ(from, 0);
    EXPECT_EQ(s.size(), 1u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ShardedEngineTest, GatherFlagFollowsTheBalancerOnEveryGraph) {
  auto send = make_balancer(Algorithm::kSendFloor, 7);
  auto rotor = make_balancer(Algorithm::kRotorRouter, 7);
  const Graph cycle = make_cycle(48);
  const Graph torus = make_torus({4, 3, 5});
  const Graph cube = make_hypercube(4);
  const LoadVector init(48, 10);
  {
    ShardedEngine e(cycle, {}, *send, init, 4);
    EXPECT_TRUE(e.windowed());
    EXPECT_EQ(e.shard_cut_edges(0), 2u);  // one edge to each side
  }
  {
    const LoadVector ti(torus.num_nodes(), 10);
    ShardedEngine e(torus, {}, *send, ti, 3);
    EXPECT_TRUE(e.windowed());
  }
  {
    const LoadVector ci(cube.num_nodes(), 10);
    ShardedEngine e(cube, {}, *send, ci, 2);
    EXPECT_FALSE(e.windowed());  // SEND(floor) scatters on the hypercube
    EXPECT_GT(e.shard_cut_edges(0), 0u);
  }
  {
    ShardedEngine e(cycle, {}, *rotor, init, 4);
    EXPECT_FALSE(e.windowed());  // stateful balancer: multi-touch
  }
}

TEST(ShardedEngineTest, InteriorNodesAreTheUncutRowsOfTheSlice) {
  // The plan is the same for a gather and a multi-touch balancer.
  for (const Algorithm a : {Algorithm::kRotorRouter, Algorithm::kSendFloor}) {
    SCOPED_TRACE(algorithm_name(a));
    auto b = make_balancer(a, 7);
    for (const ShardGraph& gg : shard_graphs()) {
      const LoadVector init(static_cast<std::size_t>(gg.graph.num_nodes()),
                            10);
      ShardedEngine e(gg.graph, {}, *b, init, 1);
      EXPECT_EQ(e.shard_interior_nodes(0), e.shard_size(0)) << gg.label;
    }
    // Two shards: every hypercube(4) node has its bit-3 neighbor across
    // the cut; the cycle keeps all but its 2 slice ends, the 8-wide torus
    // only the middle one of its 3 rows per shard.
    const std::pair<Graph, NodeId> cases[] = {
        {make_hypercube(4), 0}, {make_cycle(48), 22}, {make_torus2d(8, 6), 8}};
    for (const auto& [g, interior] : cases) {
      const LoadVector init(static_cast<std::size_t>(g.num_nodes()), 10);
      ShardedEngine e(g, {}, *b, init, 2);
      for (int s = 0; s < 2; ++s) {
        EXPECT_EQ(e.shard_interior_nodes(s), interior)
            << g.name() << " s=" << s;
      }
    }
  }
}

/// Overrides only decide(), forwarding to ROTOR-ROUTER: its
/// interior runs go through the default decide_range.
class DecideOnlyRotor : public Balancer {
 public:
  DecideOnlyRotor() : inner_(make_balancer(Algorithm::kRotorRouter, 7)) {}
  std::string name() const override { return "test:decide-only-rotor"; }
  void reset(const Graph& g, int d_loops) override {
    inner_->reset(g, d_loops);
  }
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override {
    inner_->decide(u, load, t, flows);
  }

 private:
  std::unique_ptr<Balancer> inner_;
};

TEST(ShardedEngineTest, DecideOnlyBalancerMatchesFlatThroughTheDefaultRange) {
  constexpr Step kSteps = 40;
  for (const int threads : {0, 8}) {  // 0 = no pool attached
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (const ShardGraph& gg : shard_graphs()) {
      const Graph& g = gg.graph;
      const LoadVector initial = random_initial(g.num_nodes(), 500, 99);
      auto flat_b = make_balancer(Algorithm::kRotorRouter, 7);
      Engine flat(g, EngineConfig{.self_loops = 1}, *flat_b, initial);
      flat.run(kSteps);
      for (const int k : {1, 3, 8}) {
        DecideOnlyRotor shard_b;
        ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1},
                              shard_b, initial, k);
        if (pool) sharded.set_thread_pool(pool.get());
        ASSERT_FALSE(sharded.windowed());
        sharded.run(kSteps);
        ASSERT_EQ(sharded.gather_loads(), flat.loads())
            << gg.label << " shards=" << k << " threads=" << threads;
        EXPECT_EQ(sharded.discrepancy(), flat.discrepancy()) << gg.label;
        EXPECT_EQ(sharded.min_load_seen(), flat.min_load_seen()) << gg.label;
      }
    }
  }
}

/// SEND(floor) as a pull over any graph — next(u) = kept(u) +
/// Σ_p ⌊x(nbr(u, p))/d⁺⌋, one store per slot — so it gathers on every
/// topology, and the sharded gather plan's boundary pull runs through
/// table rev_ports, parallel edges and self-edges.
class PullSendFloor : public SendFloor {
 public:
  bool gathers(const Graph&) const override { return true; }
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step t, FlowSink& sink) override {
    if (sink.row_mode()) {
      SendFloor::decide_range(first, last, loads, t, sink);
      return;
    }
    const Graph& g = sink.graph();
    const Load d_plus = sink.ports();
    LoadScan emitted;
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      Load acc = x - x / d_plus * g.degree();
      for (int p = 0; p < g.degree(); ++p) {
        acc += loads[static_cast<std::size_t>(g.neighbor(u, p))] / d_plus;
      }
      sink.next()[static_cast<std::size_t>(u)] = acc;
      emitted.merge({acc, acc, acc});
    }
    sink.merge_emit_stats(emitted, last - first);
  }
};

TEST(ShardedEngineTest, GatherBalancerOnTheRoutedTierPullsOnEveryTopology) {
  for (const ShardGraph& gg : shard_graphs()) {
    const Graph& g = gg.graph;
    const LoadVector initial = random_initial(g.num_nodes(), 500, 99);
    auto flat_b = make_balancer(Algorithm::kSendFloor, 7);
    Engine flat(g, EngineConfig{.self_loops = 1}, *flat_b, initial);
    flat.run(20);
    ThreadPool pool(3);
    for (const int k : {1, 3, 8}) {
      PullSendFloor shard_b;
      ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1}, shard_b,
                            initial, k);
      sharded.set_thread_pool(&pool);
      ASSERT_TRUE(sharded.windowed());
      sharded.run(20);
      EXPECT_EQ(sharded.gather_loads(), flat.loads())
          << gg.label << " shards=" << k;
      EXPECT_EQ(sharded.discrepancy(), flat.discrepancy()) << gg.label;
      EXPECT_EQ(sharded.min_load_seen(), flat.min_load_seen()) << gg.label;
    }
  }
}

/// The shard counts the big equivalence matrix sweeps. CI's shard-matrix
/// legs extend the built-in set through DLB_TEST_EXTRA_SHARDS so each leg
/// pins one extra count (crossed with DLB_NO_SIMD) without a rebuild.
std::vector<int> equivalence_shard_counts() {
  std::vector<int> counts = {1, 2, 3, 8};
  if (const char* extra = std::getenv("DLB_TEST_EXTRA_SHARDS")) {
    const int k = std::atoi(extra);
    if (k >= 1 && std::find(counts.begin(), counts.end(), k) == counts.end()) {
      counts.push_back(k);
    }
  }
  return counts;
}

TEST(ShardedEngineTest, EveryBalancerMatchesFlatAtEveryShardCountAndPool) {
  constexpr Step kSteps = 48;
  const auto graphs = shard_graphs();
  const std::vector<int> shard_counts = equivalence_shard_counts();
  for (const int threads : {0, 1, 8}) {  // 0 = no pool attached
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (const std::string& name : registered_balancer_names()) {
      const BalancerFactory factory = find_balancer_factory(name);
      const BalancerTraits traits = find_balancer_traits(name);
      for (const ShardGraph& gg : graphs) {
        const Graph& g = gg.graph;
        const int d = g.degree();
        for (const int d_loops : {0, d}) {
          if (traits.exact_d_loops && d_loops != d) continue;
          if (d_loops < traits.min_loops(d)) continue;
          const LoadVector initial =
              random_initial(g.num_nodes(), 500, /*seed=*/99);
          std::unique_ptr<Balancer> flat_b = factory(7);
          Engine flat(g, EngineConfig{.self_loops = d_loops}, *flat_b,
                      initial);
          for (Step t = 0; t < kSteps; ++t) flat.step();

          for (const int k : shard_counts) {
            std::unique_ptr<Balancer> shard_b = factory(7);
            ShardedEngine sharded(g,
                                  ShardedEngineConfig{.self_loops = d_loops},
                                  *shard_b, initial, k);
            if (pool) sharded.set_thread_pool(pool.get());
            const auto where = [&] {
              return name + " on " + gg.label + " d_loops=" +
                     std::to_string(d_loops) + " shards=" +
                     std::to_string(k) + " threads=" + std::to_string(threads);
            };
            sharded.run(kSteps);
            ASSERT_EQ(sharded.gather_loads(), flat.loads())
                << where() << " diverged within " << kSteps << " steps";
            EXPECT_EQ(sharded.min_load_seen(), flat.min_load_seen())
                << where();
            EXPECT_EQ(sharded.discrepancy(), flat.discrepancy()) << where();
            EXPECT_EQ(sharded.total(), flat.total()) << where();
            EXPECT_EQ(sharded.time(), flat.time()) << where();
          }
        }
      }
    }
  }
}

TEST(ShardedEngineTest, StepByStepTrajectoriesMatchFlat) {
  // The run-to-end comparison above could in principle hide compensating
  // drift; pin a representative of each plan step by step.
  const auto graphs = shard_graphs();
  for (const Algorithm a : {Algorithm::kSendFloor, Algorithm::kRotorRouter}) {
    for (const ShardGraph& gg : graphs) {
      const Graph& g = gg.graph;
      const LoadVector initial = random_initial(g.num_nodes(), 500, 99);
      auto flat_b = make_balancer(a, 7);
      auto shard_b = make_balancer(a, 7);
      Engine flat(g, EngineConfig{.self_loops = 1}, *flat_b, initial);
      ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1},
                            *shard_b, initial, 3);
      for (Step t = 0; t < 60; ++t) {
        flat.step();
        sharded.step();
        ASSERT_EQ(sharded.gather_loads(), flat.loads())
            << algorithm_name(a) << " on " << gg.label
            << " diverged at step " << t + 1;
        ASSERT_EQ(sharded.discrepancy(), flat.discrepancy())
            << algorithm_name(a) << " on " << gg.label << " at step " << t + 1;
      }
    }
  }
}

TEST(ShardedEngineTest, WorkloadsMatchFlatAtEveryShardCount) {
  constexpr Step kSteps = 60;
  const auto graphs = shard_graphs();
  for (const Algorithm a : {Algorithm::kSendFloor, Algorithm::kRotorRouter}) {
    for (const ShardGraph& gg : graphs) {
      const Graph& g = gg.graph;
      const LoadVector initial = random_initial(g.num_nodes(), 200, 31);
      for (const int wk : {0, 1}) {
        const auto make_workload = [&]() -> std::unique_ptr<WorkloadProcess> {
          if (wk == 0) {
            return std::make_unique<PoissonWorkload>(
                PoissonWorkload::Params{.arrival_rate = 0.8,
                                        .departure_rate = 0.6});
          }
          // The adversarial argmax scan reads the global loads in its
          // serial prepare() — the path that forces the sharded gather.
          return std::make_unique<AdversarialInjector>(
              AdversarialInjector::Params{.amount = 8, .period = 2,
                                          .drain_min = true});
        };
        auto flat_w = make_workload();
        flat_w->reset(g.num_nodes(), /*seed=*/12);
        auto flat_b = make_balancer(a, 7);
        Engine flat(g, EngineConfig{.self_loops = 1}, *flat_b, initial);
        flat.set_workload(flat_w.get());
        for (Step t = 0; t < kSteps; ++t) flat.step();

        for (const int k : {1, 3, 8}) {
          auto shard_w = make_workload();
          shard_w->reset(g.num_nodes(), /*seed=*/12);
          auto shard_b = make_balancer(a, 7);
          ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1},
                                *shard_b, initial, k);
          sharded.set_workload(shard_w.get());
          sharded.run(kSteps);
          const auto where = [&] {
            return algorithm_name(a) + std::string(" on ") + gg.label +
                   " workload=" + (wk == 0 ? "poisson" : "adversarial") +
                   " shards=" + std::to_string(k);
          };
          ASSERT_EQ(sharded.gather_loads(), flat.loads()) << where();
          EXPECT_EQ(sharded.injected_total(), flat.injected_total())
              << where();
          EXPECT_EQ(sharded.consumed_total(), flat.consumed_total())
              << where();
          EXPECT_EQ(sharded.total(), flat.total()) << where();
          EXPECT_EQ(sharded.min_load_seen(), flat.min_load_seen()) << where();
        }
      }
    }
  }
}

TEST(ShardedEngineTest, AuditRescansMatchFlat) {
  // Every round's audit checks the emit-folded Σ, and every 64th round
  // rescans the loads in full instead: neither may show in the
  // trajectory, the statistics or the image. 200 rounds cross the
  // rescans at t = 64, 128 and 192.
  struct Case {
    const char* label;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"cycle96", make_cycle(96)});
  cases.push_back({"torus8x6", make_torus2d(8, 6)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const Graph& g = c.graph;
    const LoadVector initial = random_initial(g.num_nodes(), 300, 5);
    auto flat_b = make_balancer(Algorithm::kSendFloor, 7);
    auto shard_b = make_balancer(Algorithm::kSendFloor, 7);
    Engine flat(g, EngineConfig{.self_loops = 1}, *flat_b, initial);
    ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1}, *shard_b,
                          initial, 3);
    ASSERT_TRUE(sharded.windowed());  // the emit-folded audit
    for (Step t = 0; t < 200; ++t) {
      flat.step();
      sharded.step();
      ASSERT_EQ(sharded.discrepancy(), flat.discrepancy()) << "t=" << t + 1;
    }
    EXPECT_EQ(sharded.gather_loads(), flat.loads());
    EXPECT_EQ(sharded.discrepancy(), flat.discrepancy());
    EXPECT_EQ(sharded.min_load_seen(), flat.min_load_seen());
    StateWriter flat_bytes;
    flat.save_core_state(flat_bytes);
    StateWriter shard_bytes;
    sharded.save_core_state(shard_bytes);
    EXPECT_EQ(shard_bytes.take(), flat_bytes.data());
  }
}

// Dense churn that, in round `at`, injects `amount` into each node of
// `nodes` and nothing anywhere else.
class SpikeWorkload : public WorkloadProcess {
 public:
  SpikeWorkload(Step at, Load amount, std::vector<NodeId> nodes)
      : at_(at), amount_(amount), nodes_(std::move(nodes)) {}
  std::string name() const override { return "spike"; }
  void reset(NodeId, std::uint64_t) override {}
  Load delta(NodeId u, Step t) override {
    return t == at_ && std::find(nodes_.begin(), nodes_.end(), u) !=
                           nodes_.end()
               ? amount_
               : 0;
  }
  bool parallel_generate_safe() const override { return true; }

 private:
  Step at_;
  Load amount_;
  std::vector<NodeId> nodes_;
};

TEST(ShardedEngineTest, WorkloadOverflowThrowsTheSameErrorOnEverySubstrate) {
  // Checked int64 in the one delta rule and ledger: the error names the
  // node and the round, identically serial, pooled, and sharded — two
  // nodes in different chunks overflow and the lowest is named.
  const Graph g = make_cycle(64);
  const auto error_of = [&](const LoadVector& initial, SpikeWorkload& w,
                            int mode) {
    auto b = make_balancer(Algorithm::kSendFloor, 7);
    ThreadPool pool(4);
    std::unique_ptr<Engine> flat;
    std::unique_ptr<ShardedEngine> sharded;
    if (mode < 2) {
      flat = std::make_unique<Engine>(
          g, EngineConfig{.self_loops = g.degree()}, *b, initial);
      flat->set_workload(&w);
      if (mode == 1) flat->set_thread_pool(&pool);
    } else {
      sharded = std::make_unique<ShardedEngine>(
          g, ShardedEngineConfig{.self_loops = g.degree()}, *b, initial, 3);
      sharded->set_workload(&w);
      sharded->set_thread_pool(&pool);
    }
    try {
      if (flat) flat->run(4); else sharded->run(4);
    } catch (const invariant_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const char* modes[] = {"flat serial", "flat pool=4", "3 shards"};

  // A load past INT64_MAX: nodes 7 and 50 each receive INT64_MAX in
  // round 1 on top of a positive load.
  SpikeWorkload spike(1, std::numeric_limits<Load>::max(), {50, 7});
  const LoadVector tens(64, 10);
  for (int mode = 0; mode < 3; ++mode) {
    const std::string what = error_of(tens, spike, mode);
    EXPECT_NE(what.find("node 7 in round 1"), std::string::npos)
        << modes[mode] << ": " << what;
  }

  // The injected ledger past INT64_MAX while every load still fits.
  SpikeWorkload halves(2, std::numeric_limits<Load>::max() / 2 + 1,
                       {3, 40});
  const LoadVector zeros(64, 0);
  for (int mode = 0; mode < 3; ++mode) {
    const std::string what = error_of(zeros, halves, mode);
    EXPECT_NE(what.find("ledger in round 2"), std::string::npos)
        << modes[mode] << ": " << what;
  }
}

TEST(ShardedEngineTest, ExternalChannelAndAccountingSurface) {
  const Graph g = make_cycle(64);
  const LoadVector initial = random_initial(g.num_nodes(), 100, 3);
  auto b = make_balancer(Algorithm::kSendFloor, 7);
  InProcessShardChannel channel(4);
  ShardedEngine e(g, {}, *b, initial, 4, &channel);
  e.run(10);
  // 64 nodes over 4 shards: 16 owned slots each.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(e.shard_begin(s), 16 * s);
    EXPECT_EQ(e.shard_size(s), 16);
    // Load slice + next-load slice, one Load per slot each.
    EXPECT_EQ(e.shard_resident_bytes(s), 2 * 16 * sizeof(Load));
    // One flow staged for each neighboring shard.
    EXPECT_GE(e.shard_halo_bytes(s), 2 * sizeof(Load));
  }
  EXPECT_GT(channel.capacity_bytes(), 0u);  // flow streams were exercised
  // A channel sized for the wrong endpoint count is rejected.
  InProcessShardChannel wrong(3);
  auto b2 = make_balancer(Algorithm::kSendFloor, 7);
  EXPECT_THROW(ShardedEngine(g, {}, *b2, initial, 4, &wrong),
               invariant_error);
}

/// Steps `engine` once, expecting an invariant_error that names `what`.
template <class E>
void expect_invariant_error(E& engine, const std::string& what) {
  try {
    engine.step();
    ADD_FAILURE() << "no error; expected \"" << what << "\"";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// Promises a gather and keeps every node's load, but with `skip` set
/// leaves the last next-load slot of each range unwritten.
class SkipsOneSlot : public Balancer {
 public:
  explicit SkipsOneSlot(bool skip) : skip_(skip) {}
  std::string name() const override { return "test:skips-one-slot"; }
  void reset(const Graph&, int) override {}
  void decide(NodeId, Load, Step, std::span<Load> flows) override {
    std::fill(flows.begin(), flows.end(), 0);
  }
  bool gathers(const Graph&) const override { return true; }
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step, FlowSink& sink) override {
    if (sink.row_mode()) {
      for (NodeId u = first; u < last; ++u) {
        const std::span<Load> row = sink.row(u);
        std::fill(row.begin(), row.end(), 0);
      }
      return;
    }
    const NodeId written = skip_ ? last - first - 1 : last - first;
    Load* const next = sink.next() + first;
    for (NodeId i = 0; i < written; ++i) {
      next[i] = loads[static_cast<std::size_t>(first + i)];
    }
    LoadScan emitted;
    emitted.add(std::span<const Load>(next, static_cast<std::size_t>(written)));
    sink.merge_emit_stats(emitted, written);
  }

 private:
  bool skip_;
};

// A gather round that leaves a slot unwritten would commit that slot's
// load from two rounds ago; both engines must refuse the round instead.
// The coverage check runs before the round's conservation audit, so it is
// the check that throws.
TEST(ShardedEngineTest, GatherRoundThatSkipsASlotThrowsOnBothEngines) {
  const Graph g = make_cycle(16);
  const LoadVector initial(16, 5);
  for (const bool skip : {false, true}) {
    SCOPED_TRACE(skip ? "skipping kernel" : "covering kernel");
    SkipsOneSlot flat_bal(skip);
    Engine flat(g, EngineConfig{.self_loops = 2}, flat_bal, initial);
    SkipsOneSlot shard_bal(skip);
    ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 2}, shard_bal,
                          initial, 2);
    ASSERT_TRUE(sharded.windowed());
    if (skip) {
      expect_invariant_error(flat, "did not write every next-load slot");
      expect_invariant_error(sharded, "did not cover every interior slot");
    } else {
      flat.run(3);
      sharded.run(3);
      EXPECT_EQ(flat.loads(), initial);
      EXPECT_EQ(sharded.gather_loads(), initial);
    }
  }
}

}  // namespace
}  // namespace dlb
