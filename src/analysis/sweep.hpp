// SweepRunner: the scenario-matrix driver behind every bench.
//
// A sweep is the cross product of {graph × balancer × initial-load shape
// × workload × load scale × self-loop count × RNG seed}. SweepMatrix
// enumerates the product in a fixed lexicographic order (graphs
// outermost, seeds innermost); SweepRunner fans the independent
// run_experiment calls
// across a std::thread worker pool and aggregates the results *by
// scenario index*, never by completion order, so an 8-thread run is
// byte-identical to a sequential one.
//
// Nesting policy: with many scenarios the worker pool parallelizes
// *across* scenarios (outer mode — each run serial). With fewer
// scenarios than threads (a handful of huge-n runs), outer mode would
// idle most cores, so when some scenario graph has >= 2^15 nodes the
// runner splits the budget: one outer worker per scenario, each running
// its engine's intra-round parallel decide/apply pipeline on a private
// pool of threads/outer cores (hybrid mode), degenerating to inner mode
// — one scenario, round-parallel on the whole pool — when there is a
// single scenario. Below 2^15 nodes the per-step pool rendezvous costs
// more than round-parallelism recovers, so few small scenarios stay in
// outer mode. All modes produce byte-identical rows.
//
// Thread-safety model: graphs are immutable and shared read-only;
// balancer and engine state is per-scenario (every worker constructs its
// own balancer through a BalancerFactory from the registry); the only
// shared mutable state is the pre-sized result vector, which workers
// write at disjoint indices.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "core/load_vector.hpp"
#include "dynamics/workload.hpp"
#include "graph/graph.hpp"

namespace dlb {

/// Initial-load shapes sweeps can quantify over (see experiment.hpp for
/// the generators).
enum class InitialShape {
  kPointMass,  ///< all K·? tokens on node 0 — worst-case spike
  kBimodal,    ///< half the nodes hold K, half 0 — the Table-1 default
  kRandom,     ///< iid uniform in [0, K], drawn from the scenario seed
};

/// Stable display name ("point-mass", "bimodal", "random").
std::string initial_shape_name(InitialShape s);

/// Materializes the initial load vector of a scenario. For kPointMass the
/// spike holds k·n tokens so the average load matches the other shapes'
/// scale; the discrepancy K is k·n. kRandom draws from `seed`.
LoadVector make_initial(InitialShape s, NodeId n, Load k, std::uint64_t seed);

/// A shape axis entry: a stable display name plus a generator. Besides
/// the InitialShape enum shapes, sweeps can quantify over arbitrary
/// constructions (the lower-bound benches derive their frozen instances
/// from the scenario's graph). The generator must be a pure function of
/// (graph, k, seed) — workers call it concurrently.
struct ShapeCase {
  std::string name;
  std::function<LoadVector(const Graph& g, Load k, std::uint64_t seed)> make;
};

/// ShapeCase for an InitialShape enum value.
ShapeCase shape_case(InitialShape s);

/// A graph axis entry: built once, shared read-only across all workers.
struct GraphCase {
  std::string family;                  ///< short label ("cycle", "torus", …)
  std::shared_ptr<const Graph> graph;  ///< immutable, hence shareable
  double mu;  ///< spectral gap of G⁺ for the d° the sweep uses
};

/// A balancer axis entry: a name plus a factory, so each scenario owns a
/// fresh instance, and a clamp from requested d° to what the algorithm
/// supports (e.g. ROTOR-ROUTER* pins d° = d).
struct BalancerCase {
  std::string name;
  BalancerFactory factory;
  std::function<int(int degree, int requested)> adjust_self_loops;
};

/// BalancerCase for a Table-1 algorithm, constraints from the registry.
BalancerCase balancer_case(Algorithm a);

/// BalancerCase for any registered name (see register_balancer).
BalancerCase balancer_case(const std::string& registered_name);

/// A workload axis entry: online churn applied before every round (see
/// dynamics/workload.hpp). `make` constructs a fresh per-scenario
/// instance from the scenario seed (the runner resets it on the
/// scenario's graph); a null `make` is the static (no-churn) case, which
/// is also the axis default — existing static sweeps are untouched.
/// Dynamic sweeps typically pair this axis with
/// SweepOptions::base.steady to get the steady-state CSV columns.
struct WorkloadCase {
  std::string name = "static";
  std::function<std::unique_ptr<WorkloadProcess>(std::uint64_t seed)> make;
};

/// The explicit no-churn entry, for crossing static × dynamic scenarios
/// in one sweep.
WorkloadCase static_workload();

/// One fully resolved cell of the cross product. Axis entries are
/// referenced by index into the owning SweepMatrix.
struct Scenario {
  std::size_t index = 0;       ///< position in the deterministic ordering
  std::size_t graph_index = 0;
  std::size_t balancer_index = 0;
  std::size_t shape_index = 0;
  std::size_t workload_index = 0;  ///< 0 = the default static entry
  Load load_scale = 0;         ///< K of the initial shape
  int self_loops = 0;          ///< effective d° after the balancer's clamp
  /// The axis value before the balancer's clamp (kLoopsMatchDegree
  /// already resolved to the graph's degree) — what benches pairing a d°
  /// entry with a graph/balancer case should filter on.
  int self_loops_requested = 0;
  std::uint64_t seed = 0;
};

/// Builder for the scenario cross product. Every axis needs at least one
/// entry except workloads, self-loops, and seeds, which default to
/// {static}, {match-degree}, and {0}. Axis order in the enumeration:
/// graph ▸ balancer ▸ shape ▸ workload ▸ load scale ▸ self-loops ▸ seed.
class SweepMatrix {
 public:
  /// Sentinel for the self-loop axis: use d° = d of the scenario's graph.
  static constexpr int kLoopsMatchDegree = -1;

  SweepMatrix& add_graph(std::string family, Graph g, double mu);
  SweepMatrix& add_graph(GraphCase c);
  SweepMatrix& add_balancer(Algorithm a);
  SweepMatrix& add_balancer(BalancerCase c);
  /// Adds every algorithm of all_algorithms(), in Table-1 order.
  SweepMatrix& add_all_algorithms();
  SweepMatrix& add_shape(InitialShape s);
  SweepMatrix& add_shape(ShapeCase c);  ///< custom initial-load generator
  /// Adds a workload axis entry; the first explicit add replaces the
  /// default static entry (add static_workload() back to cross both).
  SweepMatrix& add_workload(WorkloadCase c);
  SweepMatrix& add_load_scale(Load k);
  SweepMatrix& add_self_loops(int d_loops);  ///< or kLoopsMatchDegree
  SweepMatrix& add_seed(std::uint64_t seed);

  const std::vector<GraphCase>& graphs() const noexcept { return graphs_; }
  const std::vector<BalancerCase>& balancers() const noexcept {
    return balancers_;
  }
  const std::vector<ShapeCase>& shapes() const noexcept { return shapes_; }
  const std::vector<WorkloadCase>& workloads() const noexcept {
    return workloads_;
  }

  /// Number of scenarios in the cross product.
  std::size_t size() const;

  /// Enumerates the cross product in the deterministic axis order, with
  /// each scenario's d° already clamped by its balancer. Requires every
  /// mandatory axis to be non-empty.
  std::vector<Scenario> scenarios() const;

 private:
  std::vector<GraphCase> graphs_;
  std::vector<BalancerCase> balancers_;
  std::vector<ShapeCase> shapes_;
  std::vector<Load> load_scales_;
  // The optional axes start with a default entry that the first explicit
  // add_* call replaces.
  std::vector<WorkloadCase> workloads_ = {WorkloadCase{}};
  bool workloads_defaulted_ = true;
  std::vector<int> self_loops_ = {kLoopsMatchDegree};
  bool self_loops_defaulted_ = true;
  std::vector<std::uint64_t> seeds_ = {0};
  bool seeds_defaulted_ = true;
};

/// One aggregated sweep row: the resolved scenario labels plus the full
/// experiment result. Self-contained (no pointers into the matrix).
struct SweepRow {
  std::size_t scenario_index = 0;
  /// Index into the matrix's graphs() axis — what report loops should
  /// use to look a row's graph back up (scenario_index only equals it in
  /// single-axis sweeps).
  std::size_t graph_index = 0;
  std::string family;
  std::string graph_name;
  std::string balancer;
  std::string shape;     ///< the ShapeCase display name
  std::string workload;  ///< the WorkloadCase display name ("static")
  Load load_scale = 0;
  int self_loops = 0;
  std::uint64_t seed = 0;
  ExperimentResult result;
};

struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 1;
  /// Template for every scenario's ExperimentSpec; self_loops and seed
  /// are overwritten per scenario.
  ExperimentSpec base;
  /// Per-scenario spec hook, applied after the self_loops/seed overwrite
  /// — benches use it to pair horizons or reach targets with a scenario.
  /// Must be pure (workers call it concurrently).
  std::function<void(const Scenario&, ExperimentSpec&)> adjust_spec;
  /// Optional progress callback, invoked under a lock in *completion*
  /// order (aggregation stays scenario-ordered regardless).
  std::function<void(const SweepRow&)> on_result;
};

class ThreadPool;

/// Runs a SweepMatrix across a worker pool; results come back ordered by
/// scenario index and are identical for any thread count (and for every
/// nesting mode).
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Executes every scenario; rethrows the first worker exception after
  /// joining all threads.
  std::vector<SweepRow> run(const SweepMatrix& matrix) const;

  /// Executes an explicit scenario list (e.g. a filtered subset of
  /// matrix.scenarios(), as bench_table1 does to pair each graph family
  /// with its own K). Rows come back in list order.
  std::vector<SweepRow> run(const SweepMatrix& matrix,
                            const std::vector<Scenario>& scenarios) const;

  /// Effective worker count for `scenario_count` scenarios.
  int effective_threads(std::size_t scenario_count) const;

  /// Writes the rows as CSV (header + one line per row) via util/csv.
  static void write_csv(const std::vector<SweepRow>& rows, std::ostream& out);

  /// CSV as a string — what the determinism tests compare byte-for-byte.
  static std::string csv_string(const std::vector<SweepRow>& rows);

 private:
  SweepRow run_one(const SweepMatrix& matrix, const Scenario& s,
                   ThreadPool* pool) const;

  SweepOptions options_;
};

}  // namespace dlb
