// E13 — Round-kernel hot path: steps/sec of the engine per {n, d,
// balancer}.
//
// Simulation throughput at the paper's scales (T = c·log(nK)/µ steps over
// millions of nodes) is what this bench tracks. The `lazy` series run the
// serial 1-part plan round: one decide_range call per step writes the round
// straight into the next-load buffer, no flow buffer exists. Every step
// is audited, as on every engine: a gather folds Σ into its emit, a
// multi-touch round sums during the min/max scan it makes anyway.
// items_per_second == engine steps per second.
//
// Every 2^k-node series has a twin one node (or one torus row) larger:
// power-of-two array sizes are where the loads and next-load buffers
// would alias in the cache, so a pair that drifts apart flags an
// allocator-colouring regression. Pooled series (StepParallel_*,
// Sharded_*) are timed on the wall clock (UseRealTime): the CPU time a
// pool worker burns never accrues to the bench thread.
//
// CI runs this with --benchmark_min_time=0.1 as a smoke step so that a
// kernel regression (or an accidental re-materialization) breaks the
// build loudly rather than silently slowing every sweep.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "obs/metrics.hpp"
#include "core/engine.hpp"
#include "core/fairness.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "shard/sharded_engine.hpp"
#include "util/parse_number.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlb;

void run_steps(benchmark::State& state, const Graph& g, Algorithm algo) {
  auto balancer = balancer_factory(algo)(/*seed=*/42);
  EngineConfig config;
  config.self_loops = g.degree();  // d° = d, the theorems' regime
  Engine e(g, config, *balancer, random_initial(g.num_nodes(), 1000, 7));

  for (auto _ : state) {
    e.step();
    benchmark::DoNotOptimize(e.loads().data());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == steps/sec
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["node_steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_nodes()),
      benchmark::Counter::kIsRate);
  state.SetLabel(algorithm_name(algo) + "/lazy");
}

const Graph& cycle_1m() {
  static const Graph g = make_cycle(1 << 20);
  return g;
}

const Graph& cycle_1m_plus1() {
  static const Graph g = make_cycle((1 << 20) + 1);
  return g;
}

const Graph& torus_512() {
  static const Graph g = make_torus2d(512, 512);
  return g;
}

const Graph& torus_513x512() {
  static const Graph g = make_torus2d(513, 512);
  return g;
}

const Graph& torus_1000() {
  static const Graph g = make_torus2d(1000, 1000);
  return g;
}

const Graph& cycle_256k() {
  static const Graph g = make_cycle(1 << 18);
  return g;
}

// --------------------------- n = 2^20 cycle (d = 2), the acceptance pair --
void BM_Cycle1M_SendFloor_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m(), Algorithm::kSendFloor);
}
void BM_Cycle1M_RotorRouter_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m(), Algorithm::kRotorRouter);
}
void BM_Cycle1M_RotorRouterStar_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m(), Algorithm::kRotorRouterStar);
}
void BM_Cycle1Mplus1_SendFloor_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m_plus1(), Algorithm::kSendFloor);
}
void BM_Cycle1Mplus1_RotorRouter_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m_plus1(), Algorithm::kRotorRouter);
}
void BM_Cycle1Mplus1_RotorRouterStar_Lazy(benchmark::State& s) {
  run_steps(s, cycle_1m_plus1(), Algorithm::kRotorRouterStar);
}

// ------------------------------- n = 2^18 cycle, the double-heavy kernels --
void BM_Cycle256k_BoundedError_Lazy(benchmark::State& s) {
  run_steps(s, cycle_256k(), Algorithm::kBoundedError);
}
void BM_Cycle256k_ContinuousMimic_Lazy(benchmark::State& s) {
  run_steps(s, cycle_256k(), Algorithm::kContinuousMimic);
}

// -------------------------- intra-round parallel thread-scaling series --
// step_parallel(); Arg is the pool size (Arg 1 = the serial 1-part plan
// round the speedup is measured against). Every pooled round runs the
// round plan with one part per thread: SEND(floor) gathers (interior runs
// store their slots, boundary nodes pull), ROTOR-ROUTER adds into
// zero-filled slices and routes its boundary rows. On the hypercube every
// node of a part is a boundary node (the high bits cross parts), so its
// series times the all-boundary shape: row-mode chunks, routed.
// The speedup curve per PR is the acceptance artifact: >= 1.5x steps/sec
// at 4 threads on a >= 4-core host (flat on a 1-CPU container).
void run_steps_parallel(benchmark::State& state, const Graph& g,
                        Algorithm algo) {
  const int threads = static_cast<int>(state.range(0));
  auto balancer = balancer_factory(algo)(/*seed=*/42);
  EngineConfig config;
  config.self_loops = g.degree();  // d° = d, the theorems' regime
  Engine e(g, config, *balancer, random_initial(g.num_nodes(), 1000, 7));
  ThreadPool pool(threads);
  if (threads > 1) e.set_thread_pool(&pool);

  for (auto _ : state) {
    e.step_parallel();
    benchmark::DoNotOptimize(e.loads().data());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == steps/sec
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["node_steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_nodes()),
      benchmark::Counter::kIsRate);
  state.SetLabel(algorithm_name(algo) + "/parallel");
}

const Graph& hypercube_16() {
  static const Graph g = make_hypercube(16);  // 2^16 nodes, d = 16
  return g;
}

void BM_StepParallel_SendFloor(benchmark::State& s) {
  run_steps_parallel(s, cycle_1m(), Algorithm::kSendFloor);
}
void BM_StepParallel_RotorRouter(benchmark::State& s) {
  run_steps_parallel(s, cycle_1m(), Algorithm::kRotorRouter);
}
void BM_StepParallel_Torus_SendFloor(benchmark::State& s) {
  run_steps_parallel(s, torus_512(), Algorithm::kSendFloor);
}
void BM_StepParallel_SendFloor_1Mplus1(benchmark::State& s) {
  run_steps_parallel(s, cycle_1m_plus1(), Algorithm::kSendFloor);
}
void BM_StepParallel_RotorRouter_1Mplus1(benchmark::State& s) {
  run_steps_parallel(s, cycle_1m_plus1(), Algorithm::kRotorRouter);
}
void BM_StepParallel_Torus513x512_SendFloor(benchmark::State& s) {
  run_steps_parallel(s, torus_513x512(), Algorithm::kSendFloor);
}
void BM_StepParallel_Hypercube_RotorRouter(benchmark::State& s) {
  run_steps_parallel(s, hypercube_16(), Algorithm::kRotorRouter);
}

// -------------------------- implicit-topology vs generic-table series --
// The same adjacency through both kernel paths: the *_Implicit legs run
// the structure-tagged graphs (neighbors computed in registers), the
// *_Generic legs run without_structure() copies (neighbors streamed from
// the n·d port tables — the pre-PR-5 behavior). SEND(floor), serial lazy
// step, 2^20 nodes each; the Implicit/Generic steps/sec ratio per family
// is the tracked acceptance artifact (>= 1.3x on the cycle), committed as
// BENCH_hotpath.json and re-checked report-only in CI.
const Graph& torus_1024() {
  static const Graph g = make_torus2d(1024, 1024);  // 2^20 nodes, d = 4
  return g;
}

const Graph& hypercube_20() {
  static const Graph g = make_hypercube(20);  // 2^20 nodes, d = 20
  return g;
}

const Graph& cycle_1m_generic() {
  static const Graph g = cycle_1m().without_structure();
  return g;
}

const Graph& torus_1024_generic() {
  static const Graph g = torus_1024().without_structure();
  return g;
}

const Graph& hypercube_20_generic() {
  static const Graph g = hypercube_20().without_structure();
  return g;
}

void BM_StepImplicit_Cycle(benchmark::State& s) {
  run_steps(s, cycle_1m(), Algorithm::kSendFloor);
}
void BM_StepGeneric_Cycle(benchmark::State& s) {
  run_steps(s, cycle_1m_generic(), Algorithm::kSendFloor);
}
void BM_StepImplicit_Torus(benchmark::State& s) {
  run_steps(s, torus_1024(), Algorithm::kSendFloor);
}
void BM_StepGeneric_Torus(benchmark::State& s) {
  run_steps(s, torus_1024_generic(), Algorithm::kSendFloor);
}
void BM_StepImplicit_Hypercube(benchmark::State& s) {
  run_steps(s, hypercube_20(), Algorithm::kSendFloor);
}
void BM_StepGeneric_Hypercube(benchmark::State& s) {
  run_steps(s, hypercube_20_generic(), Algorithm::kSendFloor);
}

// ----------------------------------- sharded engine, k-shard series --
// The ShardedEngine runs each shard's decide/apply on its own slice of the
// loads and exchanges only the flows routed over the edge cut; this
// series tracks its node-steps/sec at k ∈ {1, 2, 4, 8} shards. Interior
// runs go through the same decide_range kernel as the flat engine. Two
// legs cover both decide plans: SEND(floor) gathers (its boundary nodes
// pull; on the cycle 2 flow records per shard per round cross the
// channel), ROTOR-ROUTER scatters multi-touch. k = 1 vs the flat
// BM_Cycle1M_*_Lazy twin is the abstraction overhead of the shard
// substrate itself.
void run_steps_sharded(benchmark::State& state, const Graph& g,
                       Algorithm algo) {
  const int shards = static_cast<int>(state.range(0));
  auto balancer = balancer_factory(algo)(/*seed=*/42);
  ShardedEngineConfig config;
  config.self_loops = g.degree();  // d° = d, the theorems' regime
  ShardedEngine e(g, config, *balancer,
                  random_initial(g.num_nodes(), 1000, 7), shards);
  ThreadPool pool(shards);
  if (shards > 1) e.set_thread_pool(&pool);

  for (auto _ : state) {
    e.step();
    benchmark::DoNotOptimize(e.time());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == steps/sec
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["node_steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_nodes()),
      benchmark::Counter::kIsRate);
  std::size_t halo = 0;
  for (int s = 0; s < shards; ++s) halo += e.shard_halo_bytes(s);
  state.counters["halo_bytes"] = static_cast<double>(halo);
  state.SetLabel(algorithm_name(algo) + "/sharded");
}

void BM_Sharded_Cycle1M_SendFloor(benchmark::State& s) {
  run_steps_sharded(s, cycle_1m(), Algorithm::kSendFloor);
}
void BM_Sharded_Cycle1M_RotorRouter(benchmark::State& s) {
  run_steps_sharded(s, cycle_1m(), Algorithm::kRotorRouter);
}
void BM_Sharded_Cycle1Mplus1_SendFloor(benchmark::State& s) {
  run_steps_sharded(s, cycle_1m_plus1(), Algorithm::kSendFloor);
}
void BM_Sharded_Cycle1Mplus1_RotorRouter(benchmark::State& s) {
  run_steps_sharded(s, cycle_1m_plus1(), Algorithm::kRotorRouter);
}
void BM_Sharded_Torus512_SendFloor(benchmark::State& s) {
  run_steps_sharded(s, torus_512(), Algorithm::kSendFloor);
}
// The perfbench torus-sharded shape without its churn: each shard's
// interior rows run ROTOR-ROUTER's flat scatter kernel, only the two
// outer rows of a slice route flows.
void BM_Sharded_Torus1000_RotorRouter(benchmark::State& s) {
  run_steps_sharded(s, torus_1000(), Algorithm::kRotorRouter);
}

// The seeded ROTOR-ROUTER set-up of that shape (d° = d, so d⁺ = 8): one
// Fisher–Yates port order and one rotor drawn per node, serially.
// items/sec == nodes/sec.
void BM_Reset_RotorRouter_Torus1000(benchmark::State& s) {
  const Graph& g = torus_1000();
  auto balancer = make_balancer(Algorithm::kRotorRouter, /*seed=*/1);
  for (auto _ : s) {
    balancer->reset(g, g.degree());
    benchmark::ClobberMemory();
  }
  s.SetItemsProcessed(s.iterations() * g.num_nodes());
}

// ------------------------------------------------ workload generation --
// One dense round's deltas of a 2^20-node process, fetched through fill()
// in the 1024-node chunks the engines use, on one thread; items/sec ==
// deltas/sec. The Poisson series run the service-overload demand
// (λ_in = 0.08, λ_out = 0.05) on the scalar and the widest vector path,
// which the label names (AVX-512 where the CPU has it, else AVX2; the
// two series coincide on a host without AVX2); Counter is the
// torus-sharded churn.
constexpr PoissonWorkload::Params kServiceDemand{.arrival_rate = 0.08,
                                                 .departure_rate = 0.05};

void run_fill(benchmark::State& state, WorkloadProcess& w) {
  const NodeId n = cycle_1m().num_nodes();
  w.reset(n, 1);
  std::vector<Load> chunk(1024);
  Step t = 0;
  for (auto _ : state) {
    w.prepare(t, {});
    for (NodeId first = 0; first < n; first += 1024) {
      w.fill(t, first, chunk);
      benchmark::DoNotOptimize(chunk.data());
    }
    ++t;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_WorkloadFill_Poisson(benchmark::State& state, bool simd_on) {
  const bool was = simd::enabled();
  simd::set_enabled(simd_on);
  state.SetLabel(simd::avx512() ? "avx512"
                 : simd::enabled() ? "avx2"
                                   : "scalar");
  PoissonWorkload w(kServiceDemand);
  run_fill(state, w);
  simd::set_enabled(was);
}
void BM_WorkloadFill_Counter(benchmark::State& state) {
  CounterWorkload w(CounterWorkload::Params{});
  run_fill(state, w);
}

// A whole service round at 2^20: the service-overload demand behind an
// AdmissionQueue (cap 48), then the SEND(floor) kernel, on an Arg-thread
// pool (serially at 1). Next to BM_StepParallel_SendFloor (the kernel alone) it reads
// the share workload generation and admission take of a round.
void BM_ServiceRound_SendFloor(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Graph& g = cycle_1m();
  auto balancer = balancer_factory(Algorithm::kSendFloor)(/*seed=*/42);
  PoissonWorkload demand(kServiceDemand);
  AdmissionQueue queue(demand, AdmissionQueue::Params{.round_cap = 48});
  queue.reset(g.num_nodes(), 1);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, *balancer,
           LoadVector(static_cast<std::size_t>(g.num_nodes()), 0));
  e.set_workload(&queue);
  ThreadPool pool(threads);
  if (threads > 1) e.set_thread_pool(&pool);

  for (auto _ : state) {
    e.step_parallel();
    benchmark::DoNotOptimize(e.loads().data());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == rounds/sec
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["node_steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.num_nodes()),
      benchmark::Counter::kIsRate);
}

// ------------------------------------------ n = 2^18 torus (d = 4) slice --
void BM_Torus512_SendFloor_Lazy(benchmark::State& s) {
  run_steps(s, torus_512(), Algorithm::kSendFloor);
}
void BM_Torus512_RotorRouter_Lazy(benchmark::State& s) {
  run_steps(s, torus_512(), Algorithm::kRotorRouter);
}

// -------------------------------------------------- the fairness audit --
// The four Table-1 graphs at bench_table1's sizes, d° = d, ROTOR-ROUTER.
// BM_FairnessAudit times FairnessAuditor::on_step alone, replaying one
// captured round's flow matrix every iteration; BM_AuditedRound times a
// whole Engine::step with the auditor attached (the serial row round plus
// the audit). items/sec == nodes/sec: 1e9 / items_per_second is ns/node.
const Graph& hypercube_10() {
  static const Graph g = make_hypercube(10);
  return g;
}

const Graph& random_regular_1024() {
  static const Graph g = make_random_regular(1024, 8, 7);
  return g;
}

const Graph& torus_16() {
  static const Graph g = make_torus2d(16, 16);
  return g;
}

const Graph& cycle_128() {
  static const Graph g = make_cycle(128);
  return g;
}

/// Keeps a copy of the last round it observed.
class RoundCapture : public StepObserver {
 public:
  void on_step(Step, const Graph&, int, std::span<const Load> pre,
               std::span<const Load> flows,
               std::span<const Load> post) override {
    pre_.assign(pre.begin(), pre.end());
    flows_.assign(flows.begin(), flows.end());
    post_.assign(post.begin(), post.end());
  }
  std::vector<Load> pre_, flows_, post_;
};

void BM_FairnessAudit(benchmark::State& s, const Graph& (*graph)()) {
  const Graph& g = graph();
  auto balancer = make_balancer(Algorithm::kRotorRouter, /*seed=*/42);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, *balancer,
           random_initial(g.num_nodes(), 1000, 7));
  RoundCapture round;
  e.add_observer(round);
  e.step();
  FairnessAuditor auditor;
  Step t = 0;
  for (auto _ : s) {
    auditor.on_step(t++, g, g.degree(), round.pre_, round.flows_,
                    round.post_);
    benchmark::DoNotOptimize(auditor.report().observed_delta);
  }
  s.SetItemsProcessed(s.iterations() * g.num_nodes());
}

void BM_AuditedRound(benchmark::State& s, const Graph& (*graph)()) {
  const Graph& g = graph();
  auto balancer = make_balancer(Algorithm::kRotorRouter, /*seed=*/42);
  Engine e(g, EngineConfig{.self_loops = g.degree()}, *balancer,
           random_initial(g.num_nodes(), 1000, 7));
  FairnessAuditor auditor;
  e.add_observer(auditor);
  for (auto _ : s) {
    e.step();
    benchmark::DoNotOptimize(e.loads().data());
  }
  s.SetItemsProcessed(s.iterations() * g.num_nodes());
}

BENCHMARK(BM_Cycle1M_SendFloor_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle1M_RotorRouter_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle1M_RotorRouterStar_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle1Mplus1_SendFloor_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle1Mplus1_RotorRouter_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle1Mplus1_RotorRouterStar_Lazy)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle256k_BoundedError_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cycle256k_ContinuousMimic_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepImplicit_Cycle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepGeneric_Cycle)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepImplicit_Torus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepGeneric_Torus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepImplicit_Hypercube)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepGeneric_Hypercube)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Torus512_SendFloor_Lazy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Torus512_RotorRouter_Lazy)->Unit(benchmark::kMillisecond);

// Pool-size (StepParallel) and shard-count (Sharded) sweeps, timed on the
// wall clock.
void pooled_sweep(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->Unit(
      benchmark::kMillisecond);
}
BENCHMARK(BM_StepParallel_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_SendFloor_1Mplus1)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_RotorRouter)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_RotorRouter_1Mplus1)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_Torus_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_Torus513x512_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_StepParallel_Hypercube_RotorRouter)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Cycle1M_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Cycle1Mplus1_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Cycle1M_RotorRouter)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Cycle1Mplus1_RotorRouter)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Torus512_SendFloor)->Apply(pooled_sweep);
BENCHMARK(BM_Sharded_Torus1000_RotorRouter)->Apply(pooled_sweep);
BENCHMARK(BM_Reset_RotorRouter_Torus1000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadFill_Poisson, scalar, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadFill_Poisson, simd, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WorkloadFill_Counter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServiceRound_SendFloor)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FairnessAudit, hypercube10, hypercube_10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FairnessAudit, random_regular1024, random_regular_1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FairnessAudit, torus16, torus_16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FairnessAudit, cycle128, cycle_128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AuditedRound, hypercube10, hypercube_10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AuditedRound, random_regular1024, random_regular_1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AuditedRound, torus16, torus_16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AuditedRound, cycle128, cycle_128)
    ->Unit(benchmark::kMicrosecond);

// -------------------------------------------------- --timed-window mode --
// Fixed wall-clock measurement, bypassing google-benchmark's iteration
// estimator: each roster entry steps its engine until the window closes
// and reports completed steps over the elapsed time, plus the process's
// peak resident set after the run (getrusage ru_maxrss — the column that
// catches an accidental adjacency materialization or a copied window).
// The final roster entry is the capstone capacity demo: a 2^26-node
// *implicit* cycle (no adjacency table exists; at 8 bytes/node its load
// state alone is 512 MiB) sharded 8 ways, with each shard's resident
// slice + flow-staging footprint printed so the memory story is part of
// the recorded artifact.

long peak_rss_kib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;  // KiB on Linux
}

template <class EngineT>
std::pair<long long, double> spin_window(EngineT& e, double window_s) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<clock::duration>(
                  std::chrono::duration<double>(window_s));
  long long steps = 0;
  do {  // at least one step, however large the graph
    e.step();
    ++steps;
  } while (clock::now() < deadline);
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  return {steps, elapsed};
}

void timed_row(const char* series, const Graph& g, Algorithm algo,
               int shards, double window_s) {
  auto balancer = balancer_factory(algo)(/*seed=*/42);
  const LoadVector initial = random_initial(g.num_nodes(), 1000, 7);
  long long steps = 0;
  double elapsed = 0.0;
  std::size_t resident = 0, halo = 0;
  const double rounds_before =
      obs::MetricsRegistry::instance().family_sum("dlb_engine_rounds_total");
  const double posted_before = obs::MetricsRegistry::instance().family_sum(
      "dlb_shard_channel_bytes_posted_total");
  if (shards == 0) {
    EngineConfig config;
    config.self_loops = g.degree();
    Engine e(g, config, *balancer, initial);
    std::tie(steps, elapsed) = spin_window(e, window_s);
  } else {
    ShardedEngineConfig config;
    config.self_loops = g.degree();
    ShardedEngine e(g, config, *balancer, initial, shards);
    ThreadPool pool(shards);
    if (shards > 1) e.set_thread_pool(&pool);
    std::tie(steps, elapsed) = spin_window(e, window_s);
    for (int s = 0; s < shards; ++s) {
      resident = std::max(resident, e.shard_resident_bytes(s));
      halo = std::max(halo, e.shard_halo_bytes(s));
    }
  }
  const double steps_per_s = static_cast<double>(steps) / elapsed;
  // Registry-sampled columns, from the same telemetry the service
  // exposes: the per-row delta of the engines' round counter (must agree
  // with the roster's own step count), the channel bytes the row posted
  // (0 for flat runs), and the RSS collector gauge.
  auto& reg = obs::MetricsRegistry::instance();
  const double metric_rounds =
      reg.family_sum("dlb_engine_rounds_total") - rounds_before;
  const double metric_posted =
      reg.family_sum("dlb_shard_channel_bytes_posted_total") - posted_before;
  const double metric_rss = reg.sample("dlb_process_peak_rss_kib");
  std::printf("%s,%s,%lld,%d,%lld,%.3f,%.2f,%.0f,%zu,%zu,%ld,%.0f,%.0f,%.0f\n",
              series, algorithm_name(algo).c_str(),
              static_cast<long long>(g.num_nodes()), shards, steps, elapsed,
              steps_per_s, steps_per_s * static_cast<double>(g.num_nodes()),
              resident, halo, peak_rss_kib(), metric_rounds, metric_posted,
              metric_rss);
  std::fflush(stdout);
}

int run_timed_window(double window_s) {
  // The timed roster runs with the registry armed: the metric_* columns
  // come from the same series the service exposes, so the CSV doubles as
  // a telemetry cross-check (metric_rounds must equal steps).
  obs::register_process_collectors();
  obs::MetricsRegistry::instance().arm(true);
  std::printf(
      "series,algorithm,nodes,shards,steps,window_s,steps_per_s,"
      "node_steps_per_s,max_shard_resident_bytes,max_shard_halo_bytes,"
      "peak_rss_kib,metric_rounds,metric_channel_posted_bytes,"
      "metric_rss_kib\n");
  timed_row("flat", cycle_1m(), Algorithm::kSendFloor, 0, window_s);
  for (int k : {1, 2, 4, 8}) {
    timed_row("sharded", cycle_1m(), Algorithm::kSendFloor, k, window_s);
  }
  // Capacity demo: 2^26 cycle (implicit, so no port tables), 8 shards.
  // The per-shard resident column shows ~1/8th of the load state per
  // shard; the staging column shows the constant few dozen bytes that
  // actually cross shards.
  timed_row("sharded-demo", make_cycle(NodeId{1} << 26), Algorithm::kSendFloor,
            8, window_s);
  return 0;
}

// ------------------------------------------------------ host fingerprint --
// CPU model, widest vector ISA and transparent-huge-page mode join
// google-benchmark's own num_cpus in the JSON context: together they say
// whether two recorded runs came from the same kind of host, and
// scripts/check_bench_hotpath.py compares timings only when they match.

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

const char* vector_isa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse";
#else
  return "non-x86";
#endif
}

std::string thp_mode() {
  // "always [madvise] never": the bracketed word is the active mode.
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  std::getline(in, modes);
  const std::size_t open = modes.find('[');
  const std::size_t close = modes.find(']');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return "unknown";
  }
  return modes.substr(open + 1, close - open - 1);
}

}  // namespace

// Expanded BENCHMARK_MAIN so the JSON context records how the binary was
// built and where it ran: scripts/check_bench_hotpath.py refuses to gate
// against numbers from a debug build, compares timings only between
// matching host fingerprints, and the SIMD line documents which kernel
// path the recorded baseline measured (see README "SIMD kernels" for the
// re-record procedure).
int main(int argc, char** argv) {
  // --timed-window[=SECONDS] is ours, not google-benchmark's: strip it
  // from argv BEFORE Initialize (which rejects unknown flags), then run
  // the wall-clock roster instead of the registered benchmarks.
  double window_s = -1.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--timed-window") {
      window_s = 2.0;
    } else if (arg.rfind("--timed-window=", 0) == 0) {
      window_s = parse_number<double>(argv[i] + sizeof("--timed-window=") - 1)
                     .value_or(0.0);
      if (window_s <= 0.0) {
        std::fprintf(stderr, "bad --timed-window value: %s\n", argv[i]);
        return 1;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
  if (window_s > 0.0) return run_timed_window(window_s);

  benchmark::AddCustomContext("dlb_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::AddCustomContext(
      "dlb_simd", dlb::simd::enabled()
                      ? "avx2"
                      : (dlb::simd::compiled() ? "disabled" : "scalar-only"));
  benchmark::AddCustomContext("dlb_cpu_model", cpu_model());
  benchmark::AddCustomContext("dlb_isa", vector_isa());
  benchmark::AddCustomContext("dlb_thp", thp_mode());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
