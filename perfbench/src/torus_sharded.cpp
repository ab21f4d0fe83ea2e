// torus-sharded: the shard substrate. ShardedEngine with 4 shards on a
// 4-thread pool, ROTOR-ROUTER with d° = d on a 1000×1000 torus (not a
// power of two), random_initial loads plus the default CounterWorkload
// churn, which writes every node beside the kernel's reads. ROTOR-ROUTER
// is stateful, so the engine takes the tier-2 routed-flow path: halo,
// drain, frames and channel carry the round; admission and snapshot do
// nothing.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "obs/metrics.hpp"
#include "shard/sharded_engine.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dlb;

constexpr int kShards = 4;

struct Sizes {
  NodeId side;
  Step ref_round;  ///< round whose state hash is checked against references
};

/// Graph, balancer, churn, pool and sharded engine of one torus instance.
struct Torus {
  Torus(Graph graph, std::uint64_t seed)
      : g(std::move(graph)),
        balancer(make_balancer(Algorithm::kRotorRouter, seed)),
        churn(CounterWorkload::Params{}),
        pool(kThreads),
        engine(g, ShardedEngineConfig{.self_loops = g.degree(), .fault = {}},
               *balancer,
               random_initial(g.num_nodes(), 1000, seed), kShards) {
    churn.reset(g.num_nodes(), seed);
    engine.set_workload(&churn);
    engine.set_thread_pool(&pool);
  }

  Graph g;
  std::unique_ptr<Balancer> balancer;
  CounterWorkload churn;
  ThreadPool pool;
  ShardedEngine engine;
};

struct Series {
  std::vector<double> round_ms;
  std::vector<double> phase_ms[4];  // prepare, halo, decide, drain
  std::vector<double> unattributed_ms;
  double loop_s = 0.0;
  double channel_bytes = 0.0;
  double frames = 0.0;
  double pool_jobs = 0.0;
  double pool_chunks = 0.0;
};

void run_rounds(ShardedEngine& e, double seconds, Step min_time, Step ref_round,
                bool traced, Spans& spans, Result& r, Series& out) {
  PhaseDelta phases[4] = {{"sharded", "prepare"},
                          {"sharded", "halo"},
                          {"sharded", "decide"},
                          {"sharded", "drain"}};
  FamilyDelta bytes("dlb_shard_channel_bytes_posted_total");
  FamilyDelta frames("dlb_shard_frames_posted_total");
  FamilyDelta jobs("dlb_pool_jobs_total");
  FamilyDelta chunks("dlb_pool_chunks_total");
  const double start = now_s();
  while (now_s() - start < seconds || e.time() < min_time) {
    double round_s = 0.0;
    {
      Spans::Scope span(spans, "round", e.time() + 1);
      const double t0 = now_s();
      if (!r.attempt("round", [&] { e.step(); })) return;
      round_s = now_s() - t0;
    }
    out.round_ms.push_back(round_s * 1e3);
    if (traced) {
      double attributed = 0.0;
      for (int p = 0; p < 4; ++p) {
        const double s = phases[p].take();
        out.phase_ms[p].push_back(s * 1e3);
        attributed += s;
      }
      out.unattributed_ms.push_back((round_s - attributed) * 1e3);
    }
    if (e.time() == ref_round) {
      r.hash("state@" + std::to_string(ref_round), hash_loads(e.gather_loads()));
    }
  }
  out.loop_s += now_s() - start;
  out.channel_bytes += bytes.take();
  out.frames += frames.take();
  out.pool_jobs += jobs.take();
  out.pool_chunks += chunks.take();
  r.check("torus-sharded conservation",
          total_load(e.gather_loads()) ==
              e.base_total() + e.injected_total() - e.consumed_total());
}

}  // namespace

void run_torus_sharded(const Options& o, Result& r, Spans& spans) {
  const Sizes z = o.tiny ? Sizes{64, 16} : Sizes{1000, 64};

  std::vector<double> setup_s, graph_s, mu_s;
  std::unique_ptr<Torus> tor;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    tor.reset();
    const double t0 = now_s();
    Graph g = make_torus2d(z.side, z.side);
    const double t1 = now_s();
    const double mu = 1.0 - lambda2_torus({z.side, z.side}, g.degree());
    const double t2 = now_s();
    tor = std::make_unique<Torus>(std::move(g), o.seed);
    const double t3 = now_s();
    r.check("torus-sharded spectral gap", mu > 0.0);
    setup_s.push_back(t3 - t0);
    graph_s.push_back(t1 - t0);
    mu_s.push_back(t2 - t1);
  }
  ShardedEngine& e = tor->engine;
  r.check("torus-sharded takes the routed-flow tier", !e.windowed());

  Series plain;
  Series traced;
  if (!o.trace) {
    run_rounds(e, o.seconds, z.ref_round, z.ref_round, false, spans, r, plain);
  } else {
    run_rounds(e, o.seconds / 3, z.ref_round, z.ref_round, false, spans, r,
               plain);
    spans.enable(true);
    obs::MetricsRegistry::instance().arm(true);
    const double errors0 =
        obs::MetricsRegistry::instance().family_sum("dlb_shard_frame_errors_total");
    run_rounds(e, o.seconds * 2 / 3, 0, -1, true, spans, r, traced);
    const double frame_errors =
        obs::MetricsRegistry::instance().family_sum("dlb_shard_frame_errors_total") -
        errors0;
    spans.enable(false);
    obs::MetricsRegistry::instance().arm(false);
    r.check("torus-sharded frame errors", frame_errors == 0.0);
    r.set("shard.frame_errors", frame_errors, "count");
  }

  const Series& m = o.trace ? traced : plain;
  const double n = static_cast<double>(z.side) * static_cast<double>(z.side);
  r.set("setup_s", p50(setup_s), "s");
  r.set("round_ms_mean", mean(m.round_ms), "ms");
  r.set("round_ms_p50", p50(m.round_ms), "ms");
  r.set("round_ms_p95", quantile(m.round_ms, 0.95), "ms");
  r.set("round_samples", static_cast<double>(m.round_ms.size()), "count");
  r.set("node_steps_per_s",
        n * static_cast<double>(m.round_ms.size()) / m.loop_s, "node-steps/s");
  if (!o.trace) return;

  const double rounds = static_cast<double>(m.round_ms.size());
  std::size_t resident = 0;
  std::size_t halo = 0;
  for (int s = 0; s < e.shards(); ++s) {
    resident = std::max(resident, e.shard_resident_bytes(s));
    halo = std::max(halo, e.shard_halo_bytes(s));
  }
  r.set("shard.prepare_ms_p50", p50(m.phase_ms[0]), "ms");
  r.set("shard.halo_ms_p50", p50(m.phase_ms[1]), "ms");
  r.set("shard.decide_ms_p50", p50(m.phase_ms[2]), "ms");
  r.set("shard.drain_ms_p50", p50(m.phase_ms[3]), "ms");
  r.set("shard.unattributed_ms_p50", p50(m.unattributed_ms), "ms");
  r.set("shard.channel_bytes_per_round", m.channel_bytes / rounds, "B/round");
  r.set("shard.frames_per_round", m.frames / rounds, "frames/round");
  r.set("shard.resident_bytes_max", static_cast<double>(resident), "B");
  r.set("shard.halo_bytes_max", static_cast<double>(halo), "B");
  r.set("pool.jobs_per_round", m.pool_jobs / rounds, "jobs/round");
  r.set("pool.chunks_per_round", m.pool_chunks / rounds, "chunks/round");
  r.set("graph.build_s", p50(graph_s), "s");
  r.set("markov.mu_s", p50(mu_s), "s");
  r.set("obs.trace_overhead",
        mean(traced.round_ms) / mean(plain.round_ms) - 1.0, "fraction");
}

}  // namespace perfbench
