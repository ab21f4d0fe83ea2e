// Tests for the synchronous engine: conservation, flow routing, observer
// protocol, remainder handling, and the run helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "core/load_vector.hpp"
#include "graph/generators.hpp"
#include "shard/sharded_engine.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

/// All tokens on node 0.
LoadVector point_mass(const Graph& g, Load total) {
  LoadVector x(static_cast<std::size_t>(g.num_nodes()), 0);
  x[0] = total;
  return x;
}

/// Test balancer that sends a fixed amount over port 0 and keeps the rest.
class SendOneOnPortZero : public Balancer {
 public:
  std::string name() const override { return "test:port0"; }
  void reset(const Graph&, int) override {}
  void decide(NodeId, Load load, Step, std::span<Load> flows) override {
    std::fill(flows.begin(), flows.end(), 0);
    if (load > 0) flows[0] = 1;
  }
};

/// Test balancer that (incorrectly) sends more than the available load.
class Oversender : public Balancer {
 public:
  std::string name() const override { return "test:oversend"; }
  void reset(const Graph&, int) override {}
  void decide(NodeId, Load load, Step, std::span<Load> flows) override {
    std::fill(flows.begin(), flows.end(), load + 1);
  }
};

/// Observer recording every callback for inspection.
class RecordingObserver : public StepObserver {
 public:
  struct Record {
    Step t;
    LoadVector pre, flows, post;
  };
  void on_step(Step t, const Graph&, int, std::span<const Load> pre,
               std::span<const Load> flows,
               std::span<const Load> post) override {
    records.push_back({t, LoadVector(pre.begin(), pre.end()),
                       LoadVector(flows.begin(), flows.end()),
                       LoadVector(post.begin(), post.end())});
  }
  std::vector<Record> records;
};

// ---------------------------------------------------------- load_vector --

TEST(LoadVector, BasicObservables) {
  const LoadVector x{3, 7, 1, 5};
  EXPECT_EQ(total_load(x), 16);
  EXPECT_EQ(max_load(x), 7);
  EXPECT_EQ(min_load(x), 1);
  EXPECT_EQ(discrepancy(x), 6);
  EXPECT_DOUBLE_EQ(average_load(x), 4.0);
  EXPECT_DOUBLE_EQ(balancedness(x), 3.0);
}

TEST(LoadVector, UniformVectorHasZeroDiscrepancy) {
  const LoadVector x{4, 4, 4};
  EXPECT_EQ(discrepancy(x), 0);
  EXPECT_DOUBLE_EQ(balancedness(x), 0.0);
}

// --------------------------------------------------------------- engine --

TEST(Engine, RejectsWrongInitialSize) {
  const Graph g = make_cycle(4);
  SendFloor b;
  EXPECT_THROW(Engine(g, EngineConfig{}, b, LoadVector{1, 2}),
               invariant_error);
}

TEST(Engine, ConservesTokens) {
  const Graph g = make_torus2d(4, 4);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 4}, b, point_mass(g, 12345));
  const Load total = e.total();
  e.run(50);
  EXPECT_EQ(total_load(e.loads()), total);
  EXPECT_EQ(e.total(), total);
  EXPECT_EQ(e.time(), 50);
}

TEST(Engine, RoutesFlowAlongCorrectPort) {
  // Cycle 0-1-2: port 0 of node u points at (u+1) mod 3.
  const Graph g = make_cycle(3);
  SendOneOnPortZero b;
  Engine e(g, EngineConfig{.self_loops = 0}, b, LoadVector{5, 0, 0});
  e.step();
  // Node 0 sent 1 token to node 1, kept 4 as the remainder.
  EXPECT_EQ(e.loads()[0], 4);
  EXPECT_EQ(e.loads()[1], 1);
  EXPECT_EQ(e.loads()[2], 0);
}

TEST(Engine, SelfLoopTokensStayLocal) {
  const Graph g = make_cycle(3);

  class SelfLoopOnly : public Balancer {
   public:
    std::string name() const override { return "test:selfloop"; }
    void reset(const Graph&, int) override {}
    void decide(NodeId, Load load, Step, std::span<Load> flows) override {
      std::fill(flows.begin(), flows.end(), 0);
      flows[2] = load;  // port 2 = first self-loop (d = 2)
    }
  } b;

  Engine e(g, EngineConfig{.self_loops = 1}, b, LoadVector{3, 1, 4});
  e.run(10);
  EXPECT_EQ(e.loads(), (LoadVector{3, 1, 4}));
}

TEST(Engine, ThrowsWhenBalancerOversends) {
  const Graph g = make_cycle(3);
  Oversender b;
  Engine e(g, EngineConfig{}, b, LoadVector{1, 1, 1});
  EXPECT_THROW(e.step(), invariant_error);
}

TEST(Engine, RowPathAlsoRejectsOversendingKernels) {
  // A kernel writing rows directly (bypassing the default decide loop's
  // audit) must still trip the apply phase's oversend guard — the pull
  // phase conserves totals even for a buggy kernel, so without this
  // check negative loads would appear silently.
  class OversendingRowKernel : public Balancer {
   public:
    std::string name() const override { return "test:row-oversend"; }
    void reset(const Graph&, int) override {}
    void decide(NodeId, Load, Step, std::span<Load> flows) override {
      std::fill(flows.begin(), flows.end(), 0);
    }
    void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                      Step, FlowSink& sink) override {
      ASSERT_TRUE(sink.row_mode());
      for (NodeId u = first; u < last; ++u) {
        std::span<Load> row = sink.row(u);
        std::fill(row.begin(), row.end(),
                  loads[static_cast<std::size_t>(u)] + 1);  // oversend
      }
    }
  } b;

  const Graph g = make_cycle(4);
  Engine e(g, EngineConfig{.self_loops = 1}, b, LoadVector{2, 2, 2, 2});
  RecordingObserver obs;
  e.add_observer(obs);  // force the row path
  EXPECT_THROW(e.step(), invariant_error);
}

TEST(Engine, ObserverSeesConsistentSnapshots) {
  const Graph g = make_cycle(4);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 2}, b, LoadVector{8, 0, 0, 0});
  RecordingObserver obs;
  e.add_observer(obs);
  e.run(3);
  ASSERT_EQ(obs.records.size(), 3u);
  EXPECT_EQ(obs.records[0].t, 1);
  EXPECT_EQ(obs.records[2].t, 3);
  for (const auto& rec : obs.records) {
    EXPECT_EQ(total_load(rec.pre), 8);
    EXPECT_EQ(total_load(rec.post), 8);
    EXPECT_EQ(rec.flows.size(), 4u * 4u);  // n * (d + d°)
  }
  // Chaining: post of step k is pre of step k+1.
  EXPECT_EQ(obs.records[0].post, obs.records[1].pre);
  EXPECT_EQ(obs.records[1].post, obs.records[2].pre);
}

TEST(Engine, RunUntilDiscrepancyStopsEarly) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 4}, b, point_mass(g, 1600));
  const Step used = e.run_until_discrepancy(20, 100000);
  EXPECT_LT(used, 100000);
  EXPECT_LE(e.discrepancy(), 20);
}

TEST(Engine, RunUntilDiscrepancyRespectsCap) {
  const Graph g = make_cycle(64);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 2}, b, point_mass(g, 6400));
  const Step used = e.run_until_discrepancy(0, 5);
  EXPECT_EQ(used, 5);
  EXPECT_GT(e.discrepancy(), 0);
}

TEST(Engine, MinLoadSeenTracksInitialMinimum) {
  const Graph g = make_cycle(3);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 2}, b, LoadVector{10, 0, 2});
  EXPECT_EQ(e.min_load_seen(), 0);
  e.run(5);
  EXPECT_GE(e.min_load_seen(), 0);  // SendFloor never goes negative
}

TEST(Engine, ObserverFreeRunNeverTouchesFlowBuffer) {
  const Graph g = make_torus2d(4, 4);
  SendFloor b;
  Engine e(g, EngineConfig{.self_loops = 4}, b, point_mass(g, 999));
  e.run(25);
  // Lazy path: the n×(d+d°) flow buffer is never even allocated.
  EXPECT_FALSE(e.flows_materialized());
  // Attaching an observer flips the engine onto the materializing path.
  RecordingObserver obs;
  e.add_observer(obs);
  e.step();
  EXPECT_TRUE(e.flows_materialized());
  ASSERT_EQ(obs.records.size(), 1u);
  EXPECT_EQ(obs.records[0].flows.size(), 16u * 8u);  // n * (d + d°)
}

/// Records nothing; attaching it moves a flat engine onto its row round.
class NoOpObserver : public StepObserver {
 public:
  void on_step(Step, const Graph&, int, std::span<const Load>,
               std::span<const Load>, std::span<const Load>) override {}
};

/// Keeps every token but loses one in each decide_range call. Multi-touch
/// in scatter mode: it adds each node's load to its own slot and then −1
/// to its range's first slot. In row mode the apply pull conserves
/// whatever the rows say, so there it takes the token off its range's
/// first load in place (a kernel writing through to the loads it reads).
class LeakyKernel : public Balancer {
 public:
  explicit LeakyKernel(bool parallel = false) : parallel_(parallel) {}
  std::string name() const override { return "test:leaky"; }
  void reset(const Graph&, int) override {}
  bool parallel_decide_safe() const override { return parallel_; }
  void decide(NodeId, Load, Step, std::span<Load> flows) override {
    std::fill(flows.begin(), flows.end(), 0);
  }
  void decide_range(NodeId first, NodeId last, std::span<const Load> loads,
                    Step, FlowSink& sink) override {
    if (sink.row_mode()) {
      for (NodeId u = first; u < last; ++u) {
        const std::span<Load> row = sink.row(u);
        std::fill(row.begin(), row.end(), 0);
      }
      --const_cast<Load&>(loads[static_cast<std::size_t>(first)]);
      return;
    }
    for (NodeId u = first; u < last; ++u) {
      sink.add(u, loads[static_cast<std::size_t>(u)]);
    }
    sink.add(first, -1);  // the leak
  }

 private:
  bool parallel_;
};

/// Runs one round, expecting the conservation audit to throw.
template <class Round>
void expect_audit_throws(Round&& round) {
  try {
    round();
    ADD_FAILURE() << "the leaking round passed its audit";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("token conservation violated"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, ConservationAuditCatchesALeakOnRoundOne) {
  // Every round of every engine is audited, so a one-token leak throws on
  // the round that makes it, whichever path the round takes.
  const Graph g = make_cycle(16);
  const LoadVector initial(16, 9);
  {
    SCOPED_TRACE("flat serial scatter");
    LeakyKernel b;
    Engine e(g, EngineConfig{.self_loops = 1}, b, initial);
    expect_audit_throws([&] { e.step(); });
  }
  {
    // Two parts: the pooled round publishes the parts' slice scans.
    SCOPED_TRACE("flat pooled plan");
    LeakyKernel b(/*parallel=*/true);
    Engine e(g, EngineConfig{.self_loops = 1}, b, initial);
    ThreadPool pool(2);
    e.set_thread_pool(&pool);
    expect_audit_throws([&] { e.step_parallel(); });
  }
  {
    SCOPED_TRACE("flat observed rows");
    LeakyKernel b;
    Engine e(g, EngineConfig{.self_loops = 1}, b, initial);
    NoOpObserver observer;
    e.add_observer(observer);
    expect_audit_throws([&] { e.step(); });
  }
  {
    SCOPED_TRACE("2-shard multi-touch");
    LeakyKernel b;
    ShardedEngine e(g, ShardedEngineConfig{.self_loops = 1}, b, initial, 2);
    ASSERT_FALSE(e.windowed());
    expect_audit_throws([&] { e.step(); });
  }
}

TEST(Engine, TimeStartsAtZero) {
  const Graph g = make_cycle(3);
  SendFloor b;
  Engine e(g, EngineConfig{}, b, LoadVector{1, 1, 1});
  EXPECT_EQ(e.time(), 0);
  e.step();
  EXPECT_EQ(e.time(), 1);
}

// ------------------------------------------------------ mixed step paths --

// One engine mixes serial 1-part plan steps, pooled plan steps and, after
// a mid-run add_observer, row steps (serial, also when stepped through
// the pool), all through its one next-load buffer. Each round must equal
// an all-step() twin: a gather round must overwrite every slot a row
// round left behind, and a multi-touch part must start from zeros
// whatever the previous round wrote.
void expect_mixed_paths_match_serial_twin(const Graph& g, Algorithm a) {
  SCOPED_TRACE(algorithm_name(a));
  const LoadVector initial = random_initial(g.num_nodes(), 1000, 17);
  const EngineConfig config{.self_loops = g.degree()};
  auto twin_bal = make_balancer(a, 5);
  auto mixed_bal = make_balancer(a, 5);
  Engine twin(g, config, *twin_bal, initial);
  Engine mixed(g, config, *mixed_bal, initial);
  ThreadPool pool(4);
  mixed.set_thread_pool(&pool);
  NoOpObserver observer;
  for (int r = 0; r < 30; ++r) {
    if (r == 18) mixed.add_observer(observer);
    if (r % 3 == 2) {
      mixed.step_parallel();
    } else {
      mixed.step();
    }
    twin.step();
    ASSERT_EQ(mixed.loads(), twin.loads()) << "round " << r + 1;
    ASSERT_EQ(mixed.discrepancy(), twin.discrepancy()) << "round " << r + 1;
    ASSERT_EQ(mixed.min_load_seen(), twin.min_load_seen());
  }
  EXPECT_TRUE(mixed.flows_materialized());
  EXPECT_FALSE(twin.flows_materialized());
}

TEST(EngineMixedPaths, SendFloorGatherOnCycleAndTorus) {
  expect_mixed_paths_match_serial_twin(make_cycle(1001), Algorithm::kSendFloor);
  expect_mixed_paths_match_serial_twin(make_torus2d(24, 18),
                                       Algorithm::kSendFloor);
}

TEST(EngineMixedPaths, MultiTouchScatterOnHypercube) {
  const Graph g = make_hypercube(9);
  expect_mixed_paths_match_serial_twin(g, Algorithm::kRotorRouter);
  expect_mixed_paths_match_serial_twin(g, Algorithm::kBoundedError);
}

}  // namespace
}  // namespace dlb
