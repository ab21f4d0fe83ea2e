// Experiment driver: one standardized run = graph × balancer × initial
// load, measured at fractions of the continuous balancing time T.
//
// Every bench and example goes through run_experiment so that all results
// share the same protocol: compute µ, derive T = c·log(nK)/µ (c = 16 as
// in the proofs), attach the fairness auditor, run to a multiple of T,
// and record the discrepancy trajectory plus the audited class
// properties. The continuous process is run alongside as the yardstick.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/engine.hpp"
#include "core/fairness.hpp"
#include "core/load_vector.hpp"
#include "dynamics/steady_stats.hpp"
#include "graph/graph.hpp"

namespace dlb {

class WorkloadProcess;

/// All m tokens on node 0 (worst-case single spike; K = m).
LoadVector point_mass_initial(NodeId n, Load total);

/// First half of the nodes hold K tokens each, the rest 0 (K = K).
LoadVector bimodal_initial(NodeId n, Load k);

/// Independent uniform loads in [0, max_per_node] (expected K ≈ max).
LoadVector random_initial(NodeId n, Load max_per_node, std::uint64_t seed);

class ThreadPool;

struct ExperimentSpec {
  int self_loops = 0;             ///< d° of the run
  double time_multiplier = 1.0;   ///< horizon = multiplier × T
  double balancing_c = 16.0;      ///< the c in T = c·log(nK)/µ
  /// When > 0, the horizon is this exact step count instead of
  /// multiplier × T (the lower-bound benches run fixed-length orbits).
  Step fixed_horizon = 0;
  /// Fractions of the horizon at which the discrepancy is sampled.
  std::vector<double> sample_fractions = {0.25, 0.5, 1.0};
  bool run_continuous = true;     ///< also run the continuous yardstick
  /// Attach the fairness auditor. Auditing needs the full flow matrix, so
  /// turning it off routes the run through the engine's lazy
  /// non-materializing path (the result's `fairness` field is then the
  /// default-constructed report and must not be interpreted).
  bool audit_fairness = true;
  /// When >= 0: before the sampled horizon, run until the discrepancy
  /// first drops to this target (capped at reach_cap steps) and record
  /// the step count in ExperimentResult::t_reach — the Thm 3.3
  /// "time to reach the O(d) level" protocol.
  Load reach_target = -1;
  Step reach_cap = 0;             ///< step cap of the reach phase
  /// Copy the final load vector into ExperimentResult::final_loads (the
  /// lower-bound benches verify frozen / period-2 orbits with it).
  bool record_final_loads = false;
  /// Intra-round worker pool (not owned; may be null). With a pool the
  /// engine runs its parallel decide/apply pipeline — byte-identical
  /// results, used by SweepRunner's inner nesting mode.
  ThreadPool* pool = nullptr;
  /// RNG seed of the scenario that produced this run. run_experiment does
  /// not draw randomness itself (the balancer and the initial load are
  /// seeded by the caller); the seed is carried here so every result row
  /// records the full recipe for reproducing it.
  std::uint64_t seed = 0;
  /// Online workload applied before every round (not owned; a per-run
  /// instance — run_experiment resets it on the graph with this spec's
  /// seed). Null = the classic static run. Dynamic runs skip the
  /// continuous yardstick (it has no injection model), so
  /// continuous_final_discrepancy is NaN, and they verify the dynamic
  /// conservation identity Σx == Σx₀ + injected − consumed at the end.
  /// Sweeps must NOT set this field
  /// (SweepRunner rejects it — one instance would be shared across
  /// concurrent workers); use SweepMatrix::add_workload, whose factory
  /// makes a fresh instance per scenario.
  WorkloadProcess* workload = nullptr;
  /// Steady-state discrepancy tracking (see dynamics/steady_stats.hpp);
  /// window 0 = off. Tracked runs record windowed mean/max/p99 and the
  /// time-to-steady round in ExperimentResult::steady.
  SteadyOptions steady;
};

struct ExperimentResult {
  std::string algorithm;
  std::string graph;
  NodeId n = 0;
  int d = 0;
  int d_loops = 0;
  std::uint64_t seed = 0;  ///< echoed from ExperimentSpec::seed
  double mu = 0.0;
  Step horizon = 0;                          ///< total steps run
  Step t_balance = 0;                        ///< T = c·log(nK)/µ
  Load initial_discrepancy = 0;
  std::vector<std::pair<Step, Load>> samples;  ///< (t, discrepancy)
  Load final_discrepancy = 0;
  double final_balancedness = 0.0;
  /// False when the run skipped the fairness auditor (lazy path); the
  /// `fairness` field is then default-constructed and must not be read —
  /// CSV writers blank the fairness columns instead of emitting it.
  bool fairness_audited = true;
  FairnessReport fairness;
  Load min_load_seen = 0;
  double continuous_final_discrepancy = 0.0;  ///< NaN if not run
  /// Steps of the reach phase (-1 when spec.reach_target was off). A
  /// value equal to spec.reach_cap is ambiguous on its own — the target
  /// may have been hit exactly on the last allowed step, or never; read
  /// `reached` for the verdict.
  Step t_reach = -1;
  /// True iff the reach phase ended with discrepancy <= reach_target —
  /// including the edge where that happened on the cap-th step (which
  /// t_reach alone cannot distinguish from a capped miss). Always false
  /// when the reach phase was off.
  bool reached = false;
  /// Final load vector; only filled when spec.record_final_loads.
  LoadVector final_loads;
  /// True iff a workload process drove the run (the label below is just
  /// a display string — a process may even call itself "static").
  bool dynamic = false;
  /// Name of the run's workload process; "static" when none was attached.
  std::string workload = "static";
  /// Tokens the workload injected / consumed over the whole run (both 0
  /// for static runs).
  Load injected_total = 0;
  Load consumed_total = 0;
  /// Steady-state statistics; tracked only when spec.steady.window > 0.
  SteadySummary steady;
};

/// Runs one experiment. `mu` is the spectral gap of the balancing graph
/// (pass the analytic value when known, else spectral_gap(...).gap).
ExperimentResult run_experiment(const Graph& g, Balancer& balancer,
                                const LoadVector& initial, double mu,
                                const ExperimentSpec& spec);

/// Formats a result as a one-line human-readable summary.
std::string summarize(const ExperimentResult& r);

}  // namespace dlb
