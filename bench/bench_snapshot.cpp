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
// real checkpoint. ROTOR-ROUTER carries per-port state (n·d ints) and is
// the representative stateful scheme; SEND(floor) bounds the stateless
// case where the load vector dominates the image.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"

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

}  // namespace

BENCHMARK_MAIN();
