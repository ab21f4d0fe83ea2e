// table1-sweep: the researcher's time to an answer. The Table-1 matrix of
// bench_table1 — hypercube(10), random-regular(1024, 8), torus 16×16 and
// cycle 128 against all 9 registry balancers, bimodal initial load, the
// fairness auditor and the continuous yardstick on — run by SweepRunner
// on 4 worker threads. The graphs fit in cache, so per-round fixed costs,
// the observer row path, the randomized balancers and the analysis code
// dominate.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dlb;

constexpr std::uint64_t kGraphSeed = 7;

/// K of the bimodal initial load per family (bench_table1's pairing).
Load family_k(const std::string& family) {
  static const std::map<std::string, Load> k = {
      {"hypercube", 1024}, {"random-regular", 1024}, {"torus", 256},
      {"cycle", 128}};
  return k.at(family);
}

struct Matrix {
  SweepMatrix matrix;
  std::vector<Scenario> scenarios;
  double graph_s = 0.0;
  double mu_s = 0.0;
};

/// Builds the matrix; `tiny` shrinks every graph for the smoke tests.
std::unique_ptr<Matrix> build_matrix(std::uint64_t seed, bool tiny) {
  auto m = std::make_unique<Matrix>();
  const auto add = [&](const char* family, auto make_graph, auto gap) {
    const double t0 = now_s();
    Graph g = make_graph();
    const double t1 = now_s();
    const double mu = gap(g);
    m->graph_s += t1 - t0;
    m->mu_s += now_s() - t1;
    m->matrix.add_graph(family, std::move(g), mu);
  };
  const int dim = tiny ? 6 : 10;
  const NodeId rr = tiny ? 64 : 1024;
  const NodeId side = tiny ? 8 : 16;
  const NodeId ring = tiny ? 32 : 128;
  // d° = d throughout, as bench_table1 runs it.
  add("hypercube", [&] { return make_hypercube(dim); },
      [&](const Graph&) { return 1.0 - lambda2_hypercube(dim, dim); });
  // The graph is bench_table1's own instance; the run's seed drives the
  // scenarios (initial loads and the randomized balancers). A per-seed
  // graph would change µ, every horizon and the set-up cost with the seed.
  add("random-regular", [&] { return make_random_regular(rr, 8, kGraphSeed); },
      [&](const Graph& g) { return spectral_gap(g, 8).gap; });
  add("torus", [&] { return make_torus2d(side, side); },
      [&](const Graph&) { return 1.0 - lambda2_torus({side, side}, 4); });
  add("cycle", [&] { return make_cycle(ring); },
      [&](const Graph&) { return 1.0 - lambda2_cycle(ring, 2); });
  m->matrix.add_all_algorithms().add_shape(InitialShape::kBimodal);
  for (const Load k : std::set<Load>{128, 256, 1024}) m->matrix.add_load_scale(k);
  m->matrix.add_seed(seed);
  for (const Scenario& s : m->matrix.scenarios()) {
    if (s.load_scale == family_k(m->matrix.graphs()[s.graph_index].family)) {
      m->scenarios.push_back(s);
    }
  }
  return m;
}

struct SweepTiming {
  double wall_s = 0.0;
  std::vector<double> start;  ///< per list position, absolute seconds
  std::vector<double> end;
  std::vector<SweepRow> rows;
};

/// One SweepRunner::run over the matrix with `threads` workers. The spec
/// hook (called as each scenario starts) and the result callback (as it
/// finishes) time every scenario without changing what it computes.
SweepTiming run_sweep(const Matrix& m, const std::vector<Scenario>& list,
                      int threads) {
  SweepTiming t;
  std::map<std::size_t, std::size_t> slot;
  for (std::size_t i = 0; i < list.size(); ++i) slot[list[i].index] = i;
  t.start.assign(list.size(), 0.0);
  t.end.assign(list.size(), 0.0);
  SweepOptions options;
  options.threads = threads;
  options.base.time_multiplier = 1.0;
  options.base.sample_fractions = {1.0 / 16.0, 0.25, 1.0};
  options.base.record_final_loads = true;
  options.adjust_spec = [&](const Scenario& s, ExperimentSpec&) {
    t.start[slot.at(s.index)] = now_s();
  };
  options.on_result = [&](const SweepRow& row) {
    t.end[slot.at(row.scenario_index)] = now_s();
  };
  const SweepRunner runner(options);
  const double t0 = now_s();
  t.rows = runner.run(m.matrix, list);
  t.wall_s = now_s() - t0;
  return t;
}

}  // namespace

void run_table1_sweep(const Options& o, Result& r, Spans& spans) {
  // A set-up takes ~50 ms, short enough for one stretch of the host's
  // speed to decide all of them. So after the first kSetupReps, one more
  // set-up follows every sweep, and setup_s is the median over the run.
  std::vector<double> setup_s, graph_s, mu_s;
  const auto set_up = [&] {
    const double t0 = now_s();
    std::unique_ptr<Matrix> fresh = build_matrix(o.seed, o.tiny);
    setup_s.push_back(now_s() - t0);
    graph_s.push_back(fresh->graph_s);
    mu_s.push_back(fresh->mu_s);
    return fresh;
  };
  std::unique_ptr<Matrix> m;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    m.reset();
    m = set_up();
  }
  const std::vector<Scenario>& list = m->scenarios;

  std::vector<double> round_ms;  // per scenario: wall ÷ horizon
  std::vector<double> traced_sweep_s;
  std::vector<double> plain_sweep_s;
  double node_steps = 0.0;
  double scenario_s = 0.0;  // Σ scenario walls of the measured sweeps
  double rounds = 0.0;      // Σ horizons of the measured sweeps
  std::string csv;
  const double start = now_s();
  // Untraced runs measure every sweep. Traced runs measure one plain sweep
  // (the trace-overhead baseline), then one traced sweep.
  for (int sweep = 0;; ++sweep) {
    const bool tracing = o.trace && sweep > 0;
    if (sweep > 0 && (o.trace ? sweep > 1 : now_s() - start >= o.seconds)) break;
    spans.enable(tracing);
    obs::MetricsRegistry::instance().arm(tracing);
    SweepTiming t;
    const int span = spans.open("sweep", sweep);
    const bool ok = r.attempt("sweep", [&] { t = run_sweep(*m, list, kThreads); });
    spans.close(span);
    if (!ok) break;
    for (std::size_t i = 0; i < list.size(); ++i) {
      spans.add("scenario", span, t.start[i], t.end[i],
                static_cast<std::int64_t>(list[i].index),
                static_cast<int>(i) + 1);
    }
    (tracing ? traced_sweep_s : plain_sweep_s).push_back(t.wall_s);
    if (tracing == o.trace) {
      for (std::size_t i = 0; i < t.rows.size(); ++i) {
        const ExperimentResult& res = t.rows[i].result;
        const double horizon = static_cast<double>(res.horizon);
        const double wall = t.end[i] - t.start[i];
        round_ms.push_back(wall / horizon * 1e3);
        node_steps += static_cast<double>(res.n) * horizon;
        scenario_s += wall;
        rounds += horizon;
      }
    }
    // Each scenario is one operation; its check is conservation of the
    // bimodal load it started from, read from the final load vector.
    for (const SweepRow& row : t.rows) {
      const ExperimentResult& res = row.result;
      const Load expected =
          total_load(make_initial(InitialShape::kBimodal, res.n, row.load_scale,
                                  row.seed));
      r.check("table1-sweep conservation " + res.graph + " " + res.algorithm,
              total_load(res.final_loads) == expected);
    }
    const std::string this_csv = SweepRunner::csv_string(t.rows);
    if (sweep == 0) {
      csv = this_csv;
      r.hash("csv", hash_bytes(csv));
    } else {
      r.check("table1-sweep sweeps agree", this_csv == csv);
    }
    set_up();
  }
  spans.enable(false);
  obs::MetricsRegistry::instance().arm(false);

  const std::vector<double>& sweep_s = o.trace ? traced_sweep_s : plain_sweep_s;
  r.set("setup_s", p50(setup_s), "s");
  r.set("round_ms_mean", mean(round_ms), "ms");
  r.set("round_ms_p50", p50(round_ms), "ms");
  r.set("round_ms_p95", quantile(round_ms, 0.95), "ms");
  r.set("round_samples", static_cast<double>(round_ms.size()), "count");
  r.set("node_steps_per_s", node_steps / total(sweep_s), "node-steps/s");
  r.set("sweep.sweep_s", p50(sweep_s), "s");
  if (!o.trace) return;

  // The extra leg: every scenario alone on one thread.
  double scenario_max = 0.0;
  for (const Scenario& s : list) {
    SweepTiming t;
    if (!r.attempt("scenario alone", [&] { t = run_sweep(*m, {s}, 1); })) break;
    scenario_max = std::max(scenario_max, t.wall_s);
  }
  r.set("sweep.rounds_total",
        rounds / static_cast<double>(sweep_s.size()), "rounds");
  r.set("sweep.round_us_mean", scenario_s / rounds * 1e6, "us");
  r.set("sweep.scenario_s_max", scenario_max, "s");
  r.set("sweep.worker_util", scenario_s / (kThreads * total(sweep_s)),
        "fraction");
  r.set("graph.build_s", p50(graph_s), "s");
  r.set("markov.mu_s", p50(mu_s), "s");
  r.set("obs.trace_overhead", p50(traced_sweep_s) / p50(plain_sweep_s) - 1.0,
        "fraction");
}

}  // namespace perfbench
