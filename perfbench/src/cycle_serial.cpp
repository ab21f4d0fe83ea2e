// cycle-serial: the flat scatter kernel on its own. Serial Engine (no
// pool, no workload, no checkpoint), SEND(floor) with d° = d on a 2^20-node
// cycle from random_initial loads. Admission, snapshot and shard do no
// work here; the scatter kernel, its epoch accumulator and the allocator
// do all of it — including the power-of-two aliasing the traced run's
// 2^20+1 leg exposes.
#include <memory>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dlb;

struct Sizes {
  NodeId n;
  Step ref_round;  ///< round whose state hash is checked against references
};

/// Graph, balancer and engine of one cycle instance.
struct Cycle {
  Cycle(Graph graph, std::uint64_t seed)
      : g(std::move(graph)),
        balancer(make_balancer(Algorithm::kSendFloor)),
        engine(g, EngineConfig{.self_loops = g.degree()}, *balancer,
               random_initial(g.num_nodes(), 1000, seed)) {}

  Graph g;
  std::unique_ptr<Balancer> balancer;
  Engine engine;
};

struct Series {
  std::vector<double> round_ms;
  std::vector<double> scatter_ms;
  double loop_s = 0.0;
  double scatter_s = 0.0;
};

/// Steps `e` for `seconds` (and at least up to round `min_time`). At round
/// `ref_round` the state hash is recorded.
void run_rounds(Engine& e, double seconds, Step min_time, Step ref_round,
                bool traced, Spans& spans, Result& r, Series& out) {
  PhaseDelta scatter("flat", "scatter");
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
      const double s = scatter.take();
      out.scatter_ms.push_back(s * 1e3);
      out.scatter_s += s;
    }
    if (e.time() == ref_round) {
      r.hash("state@" + std::to_string(ref_round), hash_loads(e.loads()));
    }
  }
  out.loop_s += now_s() - start;
  r.check("cycle-serial conservation",
          total_load(e.loads()) ==
              e.base_total() + e.injected_total() - e.consumed_total());
}

}  // namespace

void run_cycle_serial(const Options& o, Result& r, Spans& spans) {
  const Sizes z = o.tiny ? Sizes{1 << 12, 64} : Sizes{1 << 20, 256};

  std::vector<double> setup_s, graph_s, mu_s;
  std::unique_ptr<Cycle> c;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    c.reset();
    const double t0 = now_s();
    Graph g = make_cycle(z.n);
    const double t1 = now_s();
    const double mu = 1.0 - lambda2_cycle(z.n, g.degree());
    const double t2 = now_s();
    c = std::make_unique<Cycle>(std::move(g), o.seed);
    const double t3 = now_s();
    r.check("cycle-serial spectral gap", mu > 0.0);
    setup_s.push_back(t3 - t0);
    graph_s.push_back(t1 - t0);
    mu_s.push_back(t2 - t1);
  }

  Series plain;
  Series traced;
  Series odd;
  if (!o.trace) {
    run_rounds(c->engine, o.seconds, z.ref_round, z.ref_round, false, spans, r,
               plain);
  } else {
    // Plain 2^k series, then the 2^k+1 leg beside it, then the traced
    // series on the same engine.
    run_rounds(c->engine, o.seconds / 4, z.ref_round, z.ref_round, false, spans,
               r, plain);
    {
      Cycle odd_cycle(make_cycle(z.n + 1), o.seed);
      run_rounds(odd_cycle.engine, o.seconds / 4, 0, -1, false, spans, r, odd);
    }
    spans.enable(true);
    obs::MetricsRegistry::instance().arm(true);
    run_rounds(c->engine, o.seconds / 2, 0, -1, true, spans, r, traced);
    spans.enable(false);
    obs::MetricsRegistry::instance().arm(false);
  }

  const Series& m = o.trace ? traced : plain;
  r.set("setup_s", p50(setup_s), "s");
  r.set("round_ms_mean", mean(m.round_ms), "ms");
  r.set("round_ms_p50", p50(m.round_ms), "ms");
  r.set("round_ms_p95", quantile(m.round_ms, 0.95), "ms");
  r.set("round_samples", static_cast<double>(m.round_ms.size()), "count");
  r.set("node_steps_per_s",
        static_cast<double>(z.n) * static_cast<double>(m.round_ms.size()) /
            m.loop_s,
        "node-steps/s");
  if (!o.trace) return;

  std::vector<double> unattributed;
  for (std::size_t i = 0; i < m.round_ms.size(); ++i) {
    unattributed.push_back(m.round_ms[i] - m.scatter_ms[i]);
  }
  r.set("core.prepare_ms_p50", 0.0, "ms");
  r.set("core.decide_ms_p50", 0.0, "ms");
  r.set("core.apply_ms_p50", 0.0, "ms");
  r.set("core.scatter_ms_p50", p50(m.scatter_ms), "ms");
  r.set("core.unattributed_ms_p50", p50(unattributed), "ms");
  r.set("core.node_steps_per_s",
        static_cast<double>(z.n) * static_cast<double>(m.scatter_ms.size()) /
            m.scatter_s,
        "node-steps/s");
  // Computed, not measured: the single-touch SEND(floor) stencil reads a
  // load, writes an accumulator value and its 1-byte epoch stamp.
  r.set("core.bytes_per_node_step", 8.0 + 8.0 + 1.0, "B/node-step");
  r.set("core.pow2_ratio", mean(plain.round_ms) / mean(odd.round_ms), "ratio");
  r.set("graph.build_s", p50(graph_s), "s");
  r.set("markov.mu_s", p50(mu_s), "s");
  r.set("obs.trace_overhead",
        mean(traced.round_ms) / mean(plain.round_ms) - 1.0, "fraction");
}

}  // namespace perfbench
