// service-overload: the balancer as a service under more demand than its
// admission cap lets in (an open loop). Flat Engine on a cycle, SEND(floor)
// with d° = d, stepped with step_parallel() on a 4-thread pool, Poisson
// demand behind an AdmissionQueue with round_cap 48, and a checkpoint
// (capture + write_file) every 50 rounds — the calls BalancerService makes.
//
// The run is cut into episodes that each start from zero loads, so every
// episode grows the same backlog and takes checkpoints of the same size:
// the figures of a run then do not depend on how many rounds it managed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/snapshot.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dlb;

struct Sizes {
  NodeId n;
  Step episode;           ///< rounds per episode
  Step checkpoint_every;  ///< rounds between checkpoints
};

constexpr Load kRoundCap = 48;
constexpr PoissonWorkload::Params kDemand{.arrival_rate = 0.08,
                                          .departure_rate = 0.05};

/// Forwarding wrapper around the admission adapter: times its serial
/// prepare() and leaves every decision to it.
class TimedWorkload final : public WorkloadProcess {
 public:
  TimedWorkload(WorkloadProcess& inner, Spans& spans)
      : inner_(&inner), spans_(&spans) {}

  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override { inner_->reset(n, seed); }
  void prepare(Step t, std::span<const Load> loads) override {
    Spans::Scope span(*spans_, "admission.prepare", t);
    const double t0 = now_s();
    inner_->prepare(t, loads);
    prepare_s_ += now_s() - t0;
  }
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }
  Load delta(NodeId u, Step t) override { return inner_->delta(u, t); }
  bool parallel_generate_safe() const override {
    return inner_->parallel_generate_safe();
  }
  const std::vector<NodeId>* affected_nodes() const override {
    return inner_->affected_nodes();
  }
  void save_state(StateWriter& w) const override { inner_->save_state(w); }
  void load_state(StateReader& r) override { inner_->load_state(r); }

  /// Seconds spent in prepare() since the previous call.
  double take_prepare_s() {
    const double s = prepare_s_;
    prepare_s_ = 0.0;
    return s;
  }

 private:
  WorkloadProcess* inner_;
  Spans* spans_;
  double prepare_s_ = 0.0;
};

/// One service instance from zero loads. Timed instances step through the
/// timing wrapper; the others attach the adapter itself.
struct Service {
  Service(const Graph& g, ThreadPool& pool, std::uint64_t seed, bool wrapped,
          Spans& spans)
      : balancer(make_balancer(Algorithm::kSendFloor)),
        demand(kDemand),
        queue(demand, AdmissionQueue::Params{.round_cap = kRoundCap}),
        timed(queue, spans),
        engine(g, EngineConfig{.self_loops = g.degree()}, *balancer,
               LoadVector(static_cast<std::size_t>(g.num_nodes()), 0)) {
    queue.reset(g.num_nodes(), seed);
    engine.set_workload(wrapped ? static_cast<WorkloadProcess*>(&timed)
                                : &queue);
    engine.set_thread_pool(&pool);
  }

  std::unique_ptr<Balancer> balancer;
  PoissonWorkload demand;
  AdmissionQueue queue;
  TimedWorkload timed;
  Engine engine;
};

struct Samples {
  std::vector<double> round_ms;
  std::vector<double> admission_ms;
  std::vector<double> prepare_ms;
  std::vector<double> decide_ms;
  std::vector<double> apply_ms;
  std::vector<double> scatter_ms;
  std::vector<double> unattributed_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> capture_ms;
  std::vector<double> write_ms;
  std::vector<double> serialize_ms;
  std::vector<double> write_mib_per_s;
  double image_mib = 0.0;
  double loop_s = 0.0;
  double kernel_s = 0.0;
  double admission_s = 0.0;
  double pool_jobs = 0.0;
  double pool_chunks = 0.0;
  std::int64_t rounds = 0;
  double backlog_entries = 0.0;
  double backlog_tokens = 0.0;
};

/// Tokens the demand process offers in rounds [0, rounds) — the sum of
/// its positive net deltas — replayed from the same seed outside any
/// timed region: the denominator of the admitted share.
double offered_tokens(NodeId n, std::uint64_t seed, Step rounds,
                      ThreadPool& pool) {
  PoissonWorkload demand(kDemand);
  demand.reset(n, seed);
  std::atomic<Load> sum{0};
  for (Step t = 0; t < rounds; ++t) {
    demand.prepare(t, {});
    pool.for_ranges(n, [&](std::int64_t first, std::int64_t last) {
      Load s = 0;
      for (std::int64_t u = first; u < last; ++u) {
        s += std::max<Load>(0, demand.delta(static_cast<NodeId>(u), t));
      }
      sum.fetch_add(s, std::memory_order_relaxed);
    });
  }
  return static_cast<double>(sum.load());
}

void checkpoint(Engine& engine, const std::string& path, bool traced,
                Spans& spans, Result& r, Samples& out) {
  r.attempt("checkpoint", [&] {
    double capture_s = 0.0;
    double write_s = 0.0;
    const EngineSnapshot snap = [&] {
      Spans::Scope span(spans, "snapshot.capture");
      const double t0 = now_s();
      EngineSnapshot s = EngineSnapshot::capture(engine);
      capture_s = now_s() - t0;
      return s;
    }();
    {
      Spans::Scope span(spans, "snapshot.write");
      const double t0 = now_s();
      snap.write_file(path);
      write_s = now_s() - t0;
    }
    out.checkpoint_ms.push_back((capture_s + write_s) * 1e3);
    out.capture_ms.push_back(capture_s * 1e3);
    out.write_ms.push_back(write_s * 1e3);
    if (!traced) return;
    // The standalone serialize() is the traced run's extra leg: write_file
    // serializes internally, this isolates that part of its time.
    Spans::Scope span(spans, "snapshot.serialize");
    const double t0 = now_s();
    const std::vector<std::uint8_t> image = snap.serialize();
    out.serialize_ms.push_back((now_s() - t0) * 1e3);
    const double mib = static_cast<double>(image.size()) / (1024.0 * 1024.0);
    out.image_mib = std::max(out.image_mib, mib);
    out.write_mib_per_s.push_back(mib / write_s);
  });
}

/// One episode of `z.episode` rounds. `timed` says whether the service
/// steps through the timing wrapper, `traced` whether the registry is
/// armed. Returns the final-state hash, or 0 when a round failed.
std::uint64_t run_episode(Service& s, const Sizes& z, const std::string& path,
                          bool timed, bool traced, Spans& spans, Result& r,
                          Samples& out) {
  PhaseDelta prepare("flat", "prepare");
  PhaseDelta decide("flat", "decide");
  PhaseDelta apply("flat", "apply");
  PhaseDelta scatter("flat", "scatter");
  FamilyDelta jobs("dlb_pool_jobs_total");
  FamilyDelta chunks("dlb_pool_chunks_total");

  const double e0 = now_s();
  for (Step k = 1; k <= z.episode; ++k) {
    double round_s = 0.0;
    {
      Spans::Scope span(spans, "round", k);
      const double t0 = now_s();
      if (!r.attempt("round", [&] { s.engine.step_parallel(); })) return 0;
      round_s = now_s() - t0;
    }
    out.round_ms.push_back(round_s * 1e3);
    const double adm = timed ? s.timed.take_prepare_s() : 0.0;
    if (timed) {
      out.admission_ms.push_back(adm * 1e3);
      out.admission_s += adm;
    }
    if (traced) {
      const double ph[4] = {prepare.take(), decide.take(), apply.take(),
                            scatter.take()};
      const double kernel = ph[0] + ph[1] + ph[2] + ph[3];
      out.prepare_ms.push_back(ph[0] * 1e3);
      out.decide_ms.push_back(ph[1] * 1e3);
      out.apply_ms.push_back(ph[2] * 1e3);
      out.scatter_ms.push_back(ph[3] * 1e3);
      out.unattributed_ms.push_back((round_s - kernel - adm) * 1e3);
      out.kernel_s += kernel;
    }
    if (k % z.checkpoint_every == 0) {
      checkpoint(s.engine, path, traced, spans, r, out);
    }
  }
  out.loop_s += now_s() - e0;
  out.rounds += z.episode;
  if (traced) {
    out.pool_jobs += jobs.take();
    out.pool_chunks += chunks.take();
    out.backlog_entries = static_cast<double>(s.queue.backlog_entries());
    out.backlog_tokens = static_cast<double>(s.queue.backlog_total());
  }
  const Engine& e = s.engine;
  r.check("service-overload conservation",
          total_load(e.loads()) ==
              e.base_total() + e.injected_total() - e.consumed_total());
  return hash_loads(e.loads());
}

}  // namespace

void run_service_overload(const Options& o, Result& r, Spans& spans) {
  const Sizes z = o.tiny ? Sizes{1 << 12, 20, 10} : Sizes{1 << 20, 100, 50};
  const std::string path = o.work_dir + "/service-overload.ckpt";

  std::vector<double> setup_s, graph_s, mu_s;
  std::unique_ptr<Service> svc;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Graph> g;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    pool.reset();
    g.reset();
    const double t0 = now_s();
    g = std::make_unique<Graph>(make_cycle(z.n));
    const double t1 = now_s();
    const double mu = 1.0 - lambda2_cycle(z.n, g->degree());
    const double t2 = now_s();
    pool = std::make_unique<ThreadPool>(kThreads);
    svc = std::make_unique<Service>(*g, *pool, o.seed, o.trace, spans);
    const double t3 = now_s();
    r.check("service-overload spectral gap", mu > 0.0);
    setup_s.push_back(t3 - t0);
    graph_s.push_back(t1 - t0);
    mu_s.push_back(t2 - t1);
  }

  // Untraced runs measure every episode. Traced runs step every episode
  // through the timing wrapper. Their first episode keeps the registry
  // disarmed: it gives the admission timings and the trace-overhead
  // baseline, free of the gauges an armed AdmissionQueue::prepare updates.
  // The later, armed episodes give the engine phase and pool series.
  Samples plain;
  Samples traced;
  std::uint64_t first_hash = 0;
  const double start = now_s();
  for (int episode = 0;; ++episode) {
    const bool tracing = o.trace && episode > 0;
    if (episode > 0) {
      if (now_s() - start >= o.seconds && (!o.trace || episode > 1)) break;
      svc.reset();
      svc = std::make_unique<Service>(*g, *pool, o.seed, o.trace, spans);
    }
    spans.enable(tracing);
    obs::MetricsRegistry::instance().arm(tracing);
    const std::uint64_t h = run_episode(*svc, z, path, o.trace, tracing, spans,
                                        r, tracing ? traced : plain);
    if (h == 0) break;
    if (episode == 0) {
      first_hash = h;
      r.hash("episode_state", h);
    } else {
      r.check("service-overload episodes agree", h == first_hash);
    }
  }
  spans.enable(false);
  obs::MetricsRegistry::instance().arm(false);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  const Samples& m = o.trace ? traced : plain;
  r.set("setup_s", p50(setup_s), "s");
  r.set("round_ms_mean", mean(m.round_ms), "ms");
  r.set("round_ms_p50", p50(m.round_ms), "ms");
  r.set("round_ms_p95", quantile(m.round_ms, 0.95), "ms");
  r.set("round_samples", static_cast<double>(m.round_ms.size()), "count");
  r.set("node_steps_per_s",
        static_cast<double>(z.n) * static_cast<double>(m.rounds) / m.loop_s,
        "node-steps/s");
  r.set("snapshot.checkpoint_ms_p50", p50(m.checkpoint_ms), "ms");
  if (!o.trace) return;

  const double rounds = static_cast<double>(m.rounds);
  // Admission timings come from the disarmed episode.
  r.set("admission.prepare_ms_p50", p50(plain.admission_ms), "ms");
  r.set("admission.round_share",
        plain.admission_s / (total(plain.round_ms) * 1e-3), "fraction");
  r.set("admission.backlog_entries", m.backlog_entries, "count");
  r.set("admission.backlog_tokens", m.backlog_tokens, "tokens");
  // Every offered token of an episode is admitted or still queued at its
  // end: each episode starts with an empty backlog.
  const double offered = offered_tokens(z.n, o.seed, z.episode, *pool);
  r.set("admission.admitted_frac", (offered - m.backlog_tokens) / offered,
        "fraction");
  r.set("admission.drain_rounds",
        m.backlog_tokens / static_cast<double>(kRoundCap), "rounds");
  r.set("core.prepare_ms_p50", p50(m.prepare_ms), "ms");
  r.set("core.decide_ms_p50", p50(m.decide_ms), "ms");
  r.set("core.apply_ms_p50", p50(m.apply_ms), "ms");
  r.set("core.scatter_ms_p50", p50(m.scatter_ms), "ms");
  r.set("core.unattributed_ms_p50", p50(m.unattributed_ms), "ms");
  r.set("core.node_steps_per_s",
        static_cast<double>(z.n) * rounds / m.kernel_s, "node-steps/s");
  // Computed, not measured: the row path reads the loads and writes d⁺
  // records per node (decide), then reads them back with the loads and
  // writes the next vector (apply): 3·8 + 2·8·d⁺ bytes per node-step.
  const double d_plus = 2.0 * g->degree();
  r.set("core.bytes_per_node_step", 24.0 + 16.0 * d_plus, "B/node-step");
  r.set("core.pow2_ratio", 0.0, "ratio");
  r.set("pool.jobs_per_round", m.pool_jobs / rounds, "jobs/round");
  r.set("pool.chunks_per_round", m.pool_chunks / rounds, "chunks/round");
  r.set("snapshot.capture_ms_p50", p50(m.capture_ms), "ms");
  r.set("snapshot.serialize_ms_p50", p50(m.serialize_ms), "ms");
  r.set("snapshot.write_ms_p50", p50(m.write_ms), "ms");
  r.set("snapshot.image_mib", m.image_mib, "MiB");
  r.set("snapshot.write_mib_per_s", p50(m.write_mib_per_s), "MiB/s");
  r.set("graph.build_s", p50(graph_s), "s");
  r.set("markov.mu_s", p50(mu_s), "s");
  r.set("obs.trace_overhead",
        mean(traced.round_ms) / mean(plain.round_ms) - 1.0, "fraction");
}

}  // namespace perfbench
