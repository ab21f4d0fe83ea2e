#include "analysis/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "balancers/continuous.hpp"
#include "dynamics/workload.hpp"
#include "markov/mixing.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"

namespace dlb {

LoadVector point_mass_initial(NodeId n, Load total) {
  DLB_REQUIRE(n >= 1 && total >= 0, "point_mass_initial: bad args");
  LoadVector x(static_cast<std::size_t>(n), 0);
  x[0] = total;
  return x;
}

LoadVector bimodal_initial(NodeId n, Load k) {
  DLB_REQUIRE(n >= 2 && k >= 0, "bimodal_initial: bad args");
  LoadVector x(static_cast<std::size_t>(n), 0);
  for (NodeId u = 0; u < n / 2; ++u) x[static_cast<std::size_t>(u)] = k;
  return x;
}

LoadVector random_initial(NodeId n, Load max_per_node, std::uint64_t seed) {
  DLB_REQUIRE(n >= 1 && max_per_node >= 0, "random_initial: bad args");
  Rng rng(seed);
  // The draws of rng.uniform_int(0, max_per_node), one bound for all.
  const FastModU64 span(static_cast<std::uint64_t>(max_per_node) + 1);
  LoadVector x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<Load>(rng.uniform_u64(span));
  return x;
}

ExperimentResult run_experiment(const Graph& g, Balancer& balancer,
                                const LoadVector& initial, double mu,
                                const ExperimentSpec& spec) {
  DLB_REQUIRE(mu > 0.0, "run_experiment: µ must be positive");
  DLB_REQUIRE(spec.time_multiplier > 0.0, "run_experiment: bad multiplier");

  ExperimentResult r;
  r.graph = g.name();
  r.n = g.num_nodes();
  r.d = g.degree();
  r.d_loops = spec.self_loops;
  r.seed = spec.seed;
  r.mu = mu;
  r.initial_discrepancy = discrepancy(initial);
  r.t_balance =
      balancing_time(g.num_nodes(), r.initial_discrepancy, mu, spec.balancing_c);
  r.horizon =
      spec.fixed_horizon > 0
          ? spec.fixed_horizon
          : std::max<Step>(
                1, static_cast<Step>(std::ceil(
                       spec.time_multiplier *
                       static_cast<double>(r.t_balance))));

  Engine engine(g, EngineConfig{.self_loops = spec.self_loops}, balancer,
                initial);
  engine.set_thread_pool(spec.pool);
  if (spec.workload != nullptr) {
    spec.workload->reset(g.num_nodes(), spec.seed);
    engine.set_workload(spec.workload);
    r.dynamic = true;
    r.workload = spec.workload->name();
  }
  r.algorithm = balancer.name();
  // The auditor needs the flow matrix of every step; without it the run
  // stays on the engine's lazy non-materializing path.
  FairnessAuditor auditor;
  if (spec.audit_fairness) engine.add_observer(auditor);

  if (spec.reach_target >= 0) {
    r.t_reach = engine.run_until_discrepancy(spec.reach_target, spec.reach_cap);
    // run_until_discrepancy returns the cap both when the target fell on
    // the last allowed step and when it was never reached; the post-phase
    // discrepancy disambiguates.
    r.reached = engine.discrepancy() <= spec.reach_target;
  }

  // Sample times: sorted unique step indices inside the horizon.
  std::vector<Step> sample_at;
  for (double f : spec.sample_fractions) {
    DLB_REQUIRE(f > 0.0 && f <= 1.0, "sample fraction must be in (0, 1]");
    sample_at.push_back(std::max<Step>(
        1, static_cast<Step>(std::llround(f * static_cast<double>(r.horizon)))));
  }
  std::sort(sample_at.begin(), sample_at.end());
  sample_at.erase(std::unique(sample_at.begin(), sample_at.end()),
                  sample_at.end());

  SteadyStateTracker tracker(spec.steady);
  std::size_t next_sample = 0;
  for (Step t = 1; t <= r.horizon; ++t) {
    engine.step_parallel();  // serial without a pool, parallel with one
    if (tracker.active()) tracker.observe(t, engine.discrepancy());
    if (next_sample < sample_at.size() && t == sample_at[next_sample]) {
      r.samples.emplace_back(t, engine.discrepancy());
      ++next_sample;
    }
  }

  r.injected_total = engine.injected_total();
  r.consumed_total = engine.consumed_total();
  if (tracker.active()) r.steady = tracker.summary();
  // The engine audits Σx == total after every step; this is the
  // end-to-end restatement against the *initial* vector — the dynamic
  // conservation identity of the workload subsystem.
  DLB_REQUIRE(total_load(engine.loads()) ==
                  total_load(initial) + r.injected_total - r.consumed_total,
              "dynamic conservation identity violated");

  r.final_discrepancy = engine.discrepancy();
  r.final_balancedness = balancedness(engine.loads());
  r.fairness_audited = spec.audit_fairness;
  if (spec.audit_fairness) r.fairness = auditor.report();
  r.min_load_seen = engine.min_load_seen();
  if (spec.record_final_loads) r.final_loads = engine.loads();

  // The continuous yardstick has no injection model, so dynamic runs
  // cannot be compared against it.
  if (spec.run_continuous && spec.workload == nullptr) {
    ContinuousDiffusion cont(g, spec.self_loops, initial);
    cont.run(r.horizon);
    r.continuous_final_discrepancy = cont.discrepancy();
  } else {
    r.continuous_final_discrepancy = std::numeric_limits<double>::quiet_NaN();
  }
  return r;
}

std::string summarize(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.algorithm << " on " << r.graph << " (d°=" << r.d_loops
     << ", µ=" << r.mu << "): K=" << r.initial_discrepancy << " -> disc@"
     << r.horizon << "=" << r.final_discrepancy
     << " (continuous=" << r.continuous_final_discrepancy;
  // Unaudited runs have a default-constructed report; say so instead of
  // printing it as if it had been measured (the CSV writer blanks these
  // columns the same way).
  if (r.fairness_audited) {
    os << ", observed δ=" << r.fairness.observed_delta
       << ", round-fair=" << (r.fairness.round_fair ? "yes" : "no");
  } else {
    os << ", fairness=unaudited";
  }
  os << ", min-load=" << r.min_load_seen;
  if (r.dynamic) {
    os << ", workload=" << r.workload << ", injected=" << r.injected_total
       << ", consumed=" << r.consumed_total;
    if (r.steady.tracked) {
      os << ", steady-mean=" << r.steady.window_mean
         << ", t-steady=" << r.steady.t_steady;
    }
  }
  os << ")";
  return os.str();
}

}  // namespace dlb
