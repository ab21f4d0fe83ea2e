// Observability gates:
//
//  1. Registry mechanics — striped counters stay exact under concurrent
//     increments, histogram observations land in the documented `le`
//     buckets, Prometheus label values are escaped per the 0.0.4 rules,
//     and a disarmed registry records nothing.
//  2. Byte-determinism — for EVERY registered balancer, a run with
//     metrics armed AND the tracer enabled produces load trajectories,
//     ledgers, and min/max histories byte-identical to a run with all
//     telemetry off, on the flat engine and the sharded engine
//     (k ∈ {1, 8}) at pool sizes {1, 8}.
//     Telemetry observes; it must never steer.
//  3. Tracer mechanics — the span ring is bounded (overwrites, never
//     grows), and the Chrome trace export is valid JSON with the fields
//     Perfetto requires.
//
// Tests that arm the process-global registry restore the disarmed state
// on exit so ordering never leaks between tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_engine.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

/// Arms the registry (and optionally the tracer) for one scope.
class TelemetryOn {
 public:
  explicit TelemetryOn(bool trace = true) {
    obs::MetricsRegistry::instance().arm(true);
    if (trace) obs::Tracer::instance().enable();
  }
  ~TelemetryOn() {
    obs::MetricsRegistry::instance().arm(false);
    obs::Tracer::instance().disable();
  }
};

TEST(MetricsRegistryTest, CounterIsExactUnderConcurrentIncrements) {
  TelemetryOn on(/*trace=*/false);
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("dlb_test_concurrent_total", "test");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value() - before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, DisarmedHandlesRecordNothing) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.arm(false);
  obs::Counter& c = reg.counter("dlb_test_disarmed_total", "test");
  obs::Gauge& g = reg.gauge("dlb_test_disarmed_gauge", "test");
  obs::Histogram& h = reg.histogram("dlb_test_disarmed_hist", "test",
                                    {1.0, 2.0});
  const std::uint64_t c0 = c.value();
  c.inc(5);
  g.set(42.0);
  h.observe(1.5);
  EXPECT_EQ(c.value(), c0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsTheSameHandle) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a =
      reg.counter("dlb_test_identity_total", "test", {{"x", "1"}});
  // Label order must not matter (canonicalized on registration).
  obs::Counter& b =
      reg.counter("dlb_test_identity_total", "test", {{"x", "1"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& other =
      reg.counter("dlb_test_identity_total", "test", {{"x", "2"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesFollowLeSemantics) {
  TelemetryOn on(/*trace=*/false);
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("dlb_test_bounds_hist", "test",
                                    {1.0, 10.0, 100.0});
  // le semantics: an observation of exactly a bound lands in that bucket.
  h.observe(0.5);    // bucket le=1
  h.observe(1.0);    // bucket le=1 (inclusive upper bound)
  h.observe(1.0001); // bucket le=10
  h.observe(10.0);   // bucket le=10
  h.observe(99.0);   // bucket le=100
  h.observe(1000.0); // +Inf overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 1000.0);
}

TEST(MetricsRegistryTest, PrometheusTextEscapesLabelsAndRendersHistograms) {
  TelemetryOn on(/*trace=*/false);
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter(
      "dlb_test_escape_total", "test",
      {{"path", "a\\b"}, {"quote", "say \"hi\""}, {"nl", "two\nlines"}});
  c.inc(3);
  obs::Histogram& h =
      reg.histogram("dlb_test_render_hist", "test", {0.5, 5.0});
  h.observe(0.1);
  h.observe(1.0);
  h.observe(99.0);
  std::ostringstream out;
  reg.render_prometheus(out);
  const std::string text = out.str();
  // Escaping: backslash, double quote, newline (0.0.4 label rules).
  EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos) << text;
  EXPECT_NE(text.find("quote=\"say \\\"hi\\\"\""), std::string::npos) << text;
  EXPECT_NE(text.find("nl=\"two\\nlines\""), std::string::npos) << text;
  // Histogram exposition: cumulative buckets, +Inf, _sum/_count.
  EXPECT_NE(text.find("dlb_test_render_hist_bucket{le=\"0.5\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlb_test_render_hist_bucket{le=\"5\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlb_test_render_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlb_test_render_hist_count 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dlb_test_escape_total counter"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ProcessCollectorsReportRssAndAllocOutcomes) {
  obs::register_process_collectors();
  auto& reg = obs::MetricsRegistry::instance();
  // RSS of a live test process is strictly positive.
  EXPECT_GT(reg.sample("dlb_process_peak_rss_kib"), 0.0);
  // Allocator gauges exist (values depend on test order; the madvise
  // failure count can never exceed the huge-alloc count).
  EXPECT_GE(reg.sample("dlb_alloc_huge_page_mmaps"), 0.0);
  EXPECT_LE(reg.sample("dlb_alloc_huge_page_madvise_failures"),
            reg.sample("dlb_alloc_huge_page_mmaps"));
}

TEST(TracerTest, RingIsBoundedAndExportsValidChromeTrace) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*capacity=*/64);
  for (int i = 0; i < 200; ++i) {
    tracer.record("span", "test", static_cast<std::uint64_t>(i) * 1000, 500,
                  "i", i);
  }
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.dropped(), 136u);
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":"), std::string::npos) << json;
  // Re-enable resets the ring for the next run.
  tracer.enable(/*capacity=*/64);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.disable();
}

TEST(TracerTest, SpansRecordOnlyWhenEnabled) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*capacity=*/16);
  { obs::TraceSpan span("on", "test"); }
  EXPECT_EQ(tracer.size(), 1u);
  tracer.disable();
  { obs::TraceSpan span("off", "test"); }
  EXPECT_EQ(tracer.size(), 1u);
}

// --- determinism gates ---------------------------------------------------

struct Trajectory {
  std::vector<LoadVector> loads;
  std::vector<Load> min_seen;
  std::vector<Load> disc;
  Load injected = 0;
  Load consumed = 0;
};

Trajectory run_flat(const std::string& name, const Graph& g, int d_loops,
                    Step steps, int threads) {
  const BalancerFactory factory = find_balancer_factory(name);
  std::unique_ptr<Balancer> b = factory(7);
  Engine e(g, EngineConfig{.self_loops = d_loops}, *b,
           random_initial(g.num_nodes(), 500, 99));
  PoissonWorkload workload(
      PoissonWorkload::Params{.arrival_rate = 0.05, .departure_rate = 0.03});
  workload.reset(g.num_nodes(), 11);
  e.set_workload(&workload);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    e.set_thread_pool(pool.get());
  }
  Trajectory out;
  for (Step t = 0; t < steps; ++t) {
    e.step_parallel();
    out.loads.push_back(e.loads());
    out.min_seen.push_back(e.min_load_seen());
    out.disc.push_back(e.discrepancy());
  }
  out.injected = e.injected_total();
  out.consumed = e.consumed_total();
  return out;
}

Trajectory run_sharded(const std::string& name, const Graph& g, int d_loops,
                       Step steps, int k, int threads) {
  const BalancerFactory factory = find_balancer_factory(name);
  std::unique_ptr<Balancer> b = factory(7);
  ShardedEngine e(g, ShardedEngineConfig{.self_loops = d_loops}, *b,
                  random_initial(g.num_nodes(), 500, 99), k);
  PoissonWorkload workload(
      PoissonWorkload::Params{.arrival_rate = 0.05, .departure_rate = 0.03});
  workload.reset(g.num_nodes(), 11);
  e.set_workload(&workload);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    e.set_thread_pool(pool.get());
  }
  Trajectory out;
  for (Step t = 0; t < steps; ++t) {
    e.step();
    out.loads.push_back(e.gather_loads());
    out.min_seen.push_back(e.min_load_seen());
    out.disc.push_back(e.discrepancy());
  }
  out.injected = e.injected_total();
  out.consumed = e.consumed_total();
  return out;
}

void expect_equal(const Trajectory& off, const Trajectory& on,
                  const std::string& where) {
  ASSERT_EQ(off.loads, on.loads) << where << ": load trajectory diverged";
  EXPECT_EQ(off.min_seen, on.min_seen) << where;
  EXPECT_EQ(off.disc, on.disc) << where;
  EXPECT_EQ(off.injected, on.injected) << where;
  EXPECT_EQ(off.consumed, on.consumed) << where;
}

TEST(TelemetryDeterminismTest, FlatEngineIsByteIdenticalWithTelemetryOnOrOff) {
  constexpr Step kSteps = 24;
  const Graph g = make_cycle(48);
  for (const std::string& name : registered_balancer_names()) {
    const BalancerTraits traits = find_balancer_traits(name);
    const int d_loops = std::max(traits.min_loops(g.degree()), g.degree());
    for (const int threads : {1, 8}) {
      const std::string where = name + " threads=" + std::to_string(threads);
      const Trajectory off = run_flat(name, g, d_loops, kSteps, threads);
      Trajectory on;
      {
        TelemetryOn telemetry;
        on = run_flat(name, g, d_loops, kSteps, threads);
      }
      expect_equal(off, on, "flat " + where);
    }
  }
}

TEST(TelemetryDeterminismTest,
     ShardedEngineIsByteIdenticalWithTelemetryOnOrOff) {
  constexpr Step kSteps = 24;
  const Graph g = make_cycle(48);
  for (const std::string& name : registered_balancer_names()) {
    const BalancerTraits traits = find_balancer_traits(name);
    const int d_loops = std::max(traits.min_loops(g.degree()), g.degree());
    for (const int k : {1, 8}) {
      for (const int threads : {1, 8}) {
        const std::string where = name + " k=" + std::to_string(k) +
                                  " threads=" + std::to_string(threads);
        const Trajectory off =
            run_sharded(name, g, d_loops, kSteps, k, threads);
        Trajectory on;
        {
          TelemetryOn telemetry;
          on = run_sharded(name, g, d_loops, kSteps, k, threads);
        }
        expect_equal(off, on, "sharded " + where);
      }
    }
  }
}

TEST(TelemetryDeterminismTest, EngineGaugesMirrorEngineStateWhenArmed) {
  const Graph g = make_cycle(32);
  std::unique_ptr<Balancer> b = find_balancer_factory("SEND(floor)")(7);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, *b,
           random_initial(g.num_nodes(), 200, 5));
  TelemetryOn on(/*trace=*/false);
  auto& reg = obs::MetricsRegistry::instance();
  const double rounds_before =
      reg.sample("dlb_engine_rounds_total", {{"engine", "flat"}});
  for (int i = 0; i < 10; ++i) e.step();
  EXPECT_EQ(reg.sample("dlb_engine_rounds_total", {{"engine", "flat"}}) -
                rounds_before,
            10.0);
  EXPECT_EQ(reg.sample("dlb_engine_time", {{"engine", "flat"}}),
            static_cast<double>(e.time()));
  EXPECT_EQ(reg.sample("dlb_engine_discrepancy", {{"engine", "flat"}}),
            static_cast<double>(e.discrepancy()));
}

TEST(TelemetryDeterminismTest, WorkloadPhasesAreTimedOnBothEngines) {
  // One workload_prepare and one workload_apply observation per round, on
  // the flat engine (serial and pooled) and on the sharded one.
  const Graph g = make_cycle(64);
  auto& reg = obs::MetricsRegistry::instance();
  const auto count = [&](const char* engine, const char* phase) {
    return reg.sample("dlb_engine_phase_seconds",
                      {{"engine", engine}, {"phase", phase}});
  };
  TelemetryOn on(/*trace=*/false);
  ThreadPool pool(3);
  PoissonWorkload workload(
      PoissonWorkload::Params{.arrival_rate = 0.05, .departure_rate = 0.03});
  workload.reset(g.num_nodes(), 11);
  for (const char* engine : {"flat", "sharded"}) {
    SCOPED_TRACE(engine);
    const double prepared = count(engine, "workload_prepare");
    const double applied = count(engine, "workload_apply");
    std::unique_ptr<Balancer> b = find_balancer_factory("SEND(floor)")(7);
    const LoadVector initial = random_initial(g.num_nodes(), 200, 5);
    if (std::string(engine) == "flat") {
      Engine e(g, EngineConfig{.self_loops = g.degree()}, *b, initial);
      e.set_workload(&workload);
      for (int i = 0; i < 3; ++i) e.step();
      e.set_thread_pool(&pool);
      e.run(3);
    } else {
      ShardedEngineConfig config;
      config.self_loops = g.degree();
      ShardedEngine e(g, config, *b, initial, /*shards=*/2);
      e.set_workload(&workload);
      e.set_thread_pool(&pool);
      e.run(6);
    }
    EXPECT_EQ(count(engine, "workload_prepare") - prepared, 6.0);
    EXPECT_EQ(count(engine, "workload_apply") - applied, 6.0);
  }
}

TEST(TelemetryDeterminismTest, AuditPhaseIsTimedOnlyOnRoundsThatScan) {
  // A SEND(floor) gather round is audited against the Σ its emit
  // folded, so the ledger scans only on its full
  // rescans (t = 64 and 128 here). A ROTOR-ROUTER scatter round is
  // multi-touch and publishes nothing, so every round scans.
  const Graph g = make_cycle(256);
  auto& reg = obs::MetricsRegistry::instance();
  const auto count = [&](const char* engine) {
    return reg.sample("dlb_engine_phase_seconds",
                      {{"engine", engine}, {"phase", "audit"}});
  };
  TelemetryOn on(/*trace=*/false);
  constexpr Step kRounds = 128;
  struct Case {
    const char* balancer;
    double scans;
  };
  for (const Case& c : {Case{"SEND(floor)", 2}, Case{"ROTOR-ROUTER", 128}}) {
    SCOPED_TRACE(c.balancer);
    const LoadVector initial = random_initial(g.num_nodes(), 200, 5);
    {
      const double before = count("flat");
      std::unique_ptr<Balancer> b = find_balancer_factory(c.balancer)(7);
      Engine e(g, EngineConfig{.self_loops = g.degree()}, *b, initial);
      for (Step t = 0; t < kRounds; ++t) e.step();
      EXPECT_EQ(count("flat") - before, c.scans);
    }
    {
      const double before = count("sharded");
      std::unique_ptr<Balancer> b = find_balancer_factory(c.balancer)(7);
      ShardedEngine e(g, ShardedEngineConfig{.self_loops = g.degree()}, *b,
                      initial, /*shards=*/2);
      e.run(kRounds);
      EXPECT_EQ(count("sharded") - before, c.scans);
    }
  }
}

TEST(TelemetryDeterminismTest, PooledRoundsAreTimedAsOneScatterPhase) {
  // A pooled observer-free round runs on the round plan, gather
  // (SEND(floor)) or multi-touch (ROTOR-ROUTER) alike, so it records the
  // scatter phase and nothing else; the prepare/decide/apply trio belongs
  // to observer (row) rounds. Each round lands in exactly one of the two
  // shapes, so traced layer sums add up.
  const Graph g = make_cycle(256);
  auto& reg = obs::MetricsRegistry::instance();
  const auto count = [&](const char* phase) {
    return reg.sample("dlb_engine_phase_seconds",
                      {{"engine", "flat"}, {"phase", phase}});
  };
  TelemetryOn on(/*trace=*/false);
  ThreadPool pool(3);
  struct Case {
    const char* balancer;
    double scatter, prepare, decide, apply;
  };
  for (const Case& c : {Case{"SEND(floor)", 5, 0, 0, 0},
                        Case{"ROTOR-ROUTER", 5, 0, 0, 0}}) {
    SCOPED_TRACE(c.balancer);
    const double scatter = count("scatter");
    const double prepare = count("prepare");
    const double decide = count("decide");
    const double apply = count("apply");
    std::unique_ptr<Balancer> b = find_balancer_factory(c.balancer)(7);
    Engine e(g, EngineConfig{.self_loops = g.degree()}, *b,
             random_initial(g.num_nodes(), 200, 5));
    e.set_thread_pool(&pool);
    e.run(5);
    EXPECT_EQ(count("scatter") - scatter, c.scatter);
    EXPECT_EQ(count("prepare") - prepare, c.prepare);
    EXPECT_EQ(count("decide") - decide, c.decide);
    EXPECT_EQ(count("apply") - apply, c.apply);
    EXPECT_FALSE(e.flows_materialized());
  }
}

TEST(TelemetryDeterminismTest, ShardedChannelByteCountersTrackFlowTraffic) {
  const Graph g = make_cycle(64);
  std::unique_ptr<Balancer> b = find_balancer_factory("SEND(floor)")(7);
  ShardedEngine e(g, ShardedEngineConfig{.self_loops = g.degree()}, *b,
                  random_initial(g.num_nodes(), 200, 5), /*shards=*/4);
  ASSERT_TRUE(e.windowed()) << "send-floor on a cycle must gather";
  TelemetryOn on(/*trace=*/false);
  auto& reg = obs::MetricsRegistry::instance();
  const double posted_before =
      reg.family_sum("dlb_shard_channel_bytes_posted_total");
  const double drained_before =
      reg.family_sum("dlb_shard_channel_bytes_drained_total");
  e.run(5);
  const double posted =
      reg.family_sum("dlb_shard_channel_bytes_posted_total") - posted_before;
  const double drained =
      reg.family_sum("dlb_shard_channel_bytes_drained_total") - drained_before;
  EXPECT_GT(posted, 0.0);
  // Every posted byte is drained exactly once per round.
  EXPECT_EQ(posted, drained);
}

}  // namespace
}  // namespace dlb
