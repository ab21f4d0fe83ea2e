// Checkpoint cost: what one EngineSnapshot costs at service scale.
//
// The service loop pays capture (+ the atomic file write) every
// checkpoint_interval rounds, so the interesting number is milliseconds
// per checkpoint at the paper's 2^20-node scale — that is the figure the
// ROADMAP quotes for the balancer-as-a-service item. capture builds the
// whole image (a snapshot is its serialized bytes), so
// BM_SnapshotCaptureSerialize adds only a copy of that image to
// BM_SnapshotCapture. The restore series bounds the recovery latency
// after a crash; the file series adds the write-to-temp + rename of a
// real checkpoint, and the read-file series the read back from disk
// (one sized read, then the checksum check of deserialize()).
// ROTOR-ROUTER carries per-port state (n·d ints) and is the representative
// stateful scheme; SEND(floor) bounds the stateless case where the load
// vector dominates the image.
//
// BM_SnapshotCapture_Service is the checkpoint perfbench's service-overload
// workload takes: a 2^20 cycle under SEND(floor) on a 4-thread pool, with
// Poisson demand queued behind an AdmissionQueue until nearly every node
// has a backlog — a 20 MiB image, three fifths of it the admission ring.
// It is the kernel figure to read beside that workload's end-to-end
// snapshot.capture_ms_p50. BM_SnapshotRestore_Service restores that image
// (checksum, core state, the admission ring's validation): the recovery
// latency of the service.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlb;

struct Deployment {
  Graph g;
  std::unique_ptr<Balancer> balancer;
  PoissonWorkload workload;
  std::unique_ptr<Engine> engine;

  Deployment(NodeId n, Algorithm algo)
      : g(make_cycle(n)),
        balancer(balancer_factory(algo)(/*seed=*/42)),
        workload(
            PoissonWorkload::Params{.arrival_rate = 0.3, .departure_rate = 0.2}) {
    engine = std::make_unique<Engine>(
        g, EngineConfig{.self_loops = g.degree()}, *balancer,
        LoadVector(static_cast<std::size_t>(n), 8));
    workload.reset(n, 13);
    engine->set_workload(&workload);
    engine->run(4);  // some history so balancer state is non-trivial
  }
};

void BM_SnapshotCapture(benchmark::State& state, Algorithm algo) {
  Deployment dep(static_cast<NodeId>(state.range(0)), algo);
  for (auto _ : state) {
    EngineSnapshot snap = EngineSnapshot::capture(*dep.engine);
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SnapshotCaptureSerialize(benchmark::State& state, Algorithm algo) {
  Deployment dep(static_cast<NodeId>(state.range(0)), algo);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = EngineSnapshot::capture(*dep.engine).serialize();
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["image_bytes"] = static_cast<double>(bytes);
}

void BM_SnapshotRestore(benchmark::State& state, Algorithm algo) {
  Deployment dep(static_cast<NodeId>(state.range(0)), algo);
  const auto image = EngineSnapshot::capture(*dep.engine).serialize();
  for (auto _ : state) {
    EngineSnapshot::deserialize(image).restore(*dep.engine);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SnapshotWriteFile(benchmark::State& state, Algorithm algo) {
  Deployment dep(static_cast<NodeId>(state.range(0)), algo);
  const EngineSnapshot snap = EngineSnapshot::capture(*dep.engine);
  const std::string path = "bench_snapshot.ck";
  for (auto _ : state) {
    snap.write_file(path);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}

void BM_SnapshotReadFile(benchmark::State& state, Algorithm algo) {
  Deployment dep(static_cast<NodeId>(state.range(0)), algo);
  const std::string path = "bench_snapshot_read.ck";
  EngineSnapshot::capture(*dep.engine).write_file(path);
  for (auto _ : state) {
    EngineSnapshot snap = EngineSnapshot::read_file(path);
    benchmark::DoNotOptimize(snap);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}

/// The service-overload deployment (see the header).
struct ServiceDeployment {
  Graph g = make_cycle(1 << 20);
  std::unique_ptr<Balancer> balancer = make_balancer(Algorithm::kSendFloor);
  PoissonWorkload demand{
      PoissonWorkload::Params{.arrival_rate = 0.5, .departure_rate = 0.05}};
  AdmissionQueue queue{demand, AdmissionQueue::Params{.round_cap = 48}};
  ThreadPool pool{4};
  Engine engine{g, EngineConfig{.self_loops = g.degree()}, *balancer,
                LoadVector(static_cast<std::size_t>(g.num_nodes()), 0)};

  ServiceDeployment() {
    queue.reset(g.num_nodes(), 1);
    engine.set_workload(&queue);
    engine.set_thread_pool(&pool);
    for (int t = 0; t < 12; ++t) engine.step_parallel();
  }
};

void BM_SnapshotCapture_Service(benchmark::State& state) {
  ServiceDeployment dep;
  for (auto _ : state) {
    EngineSnapshot snap = EngineSnapshot::capture(dep.engine);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["image_bytes"] = static_cast<double>(
      EngineSnapshot::capture(dep.engine).serialize().size());
  state.counters["backlog_nodes"] =
      static_cast<double>(dep.queue.backlog_entries());
}
BENCHMARK(BM_SnapshotCapture_Service)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SnapshotRestore_Service(benchmark::State& state) {
  ServiceDeployment dep;
  const auto image = EngineSnapshot::capture(dep.engine).serialize();
  for (auto _ : state) {
    EngineSnapshot::deserialize(image).restore(dep.engine);
  }
  state.counters["image_bytes"] = static_cast<double>(image.size());
  state.counters["backlog_nodes"] =
      static_cast<double>(dep.queue.backlog_entries());
}
BENCHMARK(BM_SnapshotRestore_Service)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

#define SNAPSHOT_BENCH(fn)                                               \
  BENCHMARK_CAPTURE(fn, send_floor, Algorithm::kSendFloor)               \
      ->RangeMultiplier(32)                                              \
      ->Range(1 << 10, 1 << 20)                                          \
      ->Unit(benchmark::kMillisecond);                                   \
  BENCHMARK_CAPTURE(fn, rotor, Algorithm::kRotorRouter)                  \
      ->RangeMultiplier(32)                                              \
      ->Range(1 << 10, 1 << 20)                                          \
      ->Unit(benchmark::kMillisecond)

SNAPSHOT_BENCH(BM_SnapshotCapture);
SNAPSHOT_BENCH(BM_SnapshotCaptureSerialize);
SNAPSHOT_BENCH(BM_SnapshotRestore);
SNAPSHOT_BENCH(BM_SnapshotWriteFile);
SNAPSHOT_BENCH(BM_SnapshotReadFile);

}  // namespace

BENCHMARK_MAIN();
