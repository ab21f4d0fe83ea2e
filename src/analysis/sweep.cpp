#include "analysis/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/assertions.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

std::string initial_shape_name(InitialShape s) {
  switch (s) {
    case InitialShape::kPointMass: return "point-mass";
    case InitialShape::kBimodal: return "bimodal";
    case InitialShape::kRandom: return "random";
  }
  DLB_REQUIRE(false, "initial_shape_name: unknown shape");
  return {};
}

LoadVector make_initial(InitialShape s, NodeId n, Load k, std::uint64_t seed) {
  switch (s) {
    case InitialShape::kPointMass:
      return point_mass_initial(n, k * static_cast<Load>(n));
    case InitialShape::kBimodal: return bimodal_initial(n, k);
    case InitialShape::kRandom: return random_initial(n, k, seed);
  }
  DLB_REQUIRE(false, "make_initial: unknown shape");
  return {};
}

ShapeCase shape_case(InitialShape s) {
  return {initial_shape_name(s),
          [s](const Graph& g, Load k, std::uint64_t seed) {
            return make_initial(s, g.num_nodes(), k, seed);
          }};
}

BalancerCase balancer_case(Algorithm a) {
  BalancerCase c;
  c.name = algorithm_name(a);
  c.factory = balancer_factory(a);
  c.adjust_self_loops = [a](int degree, int requested) {
    if (requires_exact_d_loops(a)) return degree;
    return std::max(requested, min_self_loops(a, degree));
  };
  return c;
}

BalancerCase balancer_case(const std::string& registered_name) {
  BalancerCase c;
  c.name = registered_name;
  c.factory = find_balancer_factory(registered_name);
  BalancerTraits traits = find_balancer_traits(registered_name);
  c.adjust_self_loops = [traits](int degree, int requested) {
    if (traits.exact_d_loops) return degree;
    return std::max(requested, traits.min_loops(degree));
  };
  return c;
}

SweepMatrix& SweepMatrix::add_graph(std::string family, Graph g, double mu) {
  DLB_REQUIRE(mu > 0.0, "SweepMatrix::add_graph: µ must be positive");
  graphs_.push_back({std::move(family),
                     std::make_shared<const Graph>(std::move(g)), mu});
  return *this;
}

SweepMatrix& SweepMatrix::add_graph(GraphCase c) {
  DLB_REQUIRE(c.graph != nullptr, "SweepMatrix::add_graph: null graph");
  DLB_REQUIRE(c.mu > 0.0, "SweepMatrix::add_graph: µ must be positive");
  graphs_.push_back(std::move(c));
  return *this;
}

SweepMatrix& SweepMatrix::add_balancer(Algorithm a) {
  return add_balancer(balancer_case(a));
}

SweepMatrix& SweepMatrix::add_balancer(BalancerCase c) {
  DLB_REQUIRE(c.factory != nullptr, "SweepMatrix::add_balancer: null factory");
  DLB_REQUIRE(c.adjust_self_loops != nullptr,
              "SweepMatrix::add_balancer: null self-loop clamp");
  balancers_.push_back(std::move(c));
  return *this;
}

SweepMatrix& SweepMatrix::add_all_algorithms() {
  for (Algorithm a : all_algorithms()) add_balancer(a);
  return *this;
}

SweepMatrix& SweepMatrix::add_shape(InitialShape s) {
  return add_shape(shape_case(s));
}

SweepMatrix& SweepMatrix::add_shape(ShapeCase c) {
  DLB_REQUIRE(c.make != nullptr, "SweepMatrix::add_shape: null generator");
  DLB_REQUIRE(!c.name.empty(), "SweepMatrix::add_shape: empty name");
  shapes_.push_back(std::move(c));
  return *this;
}

WorkloadCase static_workload() { return WorkloadCase{}; }

SweepMatrix& SweepMatrix::add_workload(WorkloadCase c) {
  // A null factory is allowed — it is the static case (static_workload()
  // re-adds it explicitly to cross static × dynamic in one sweep).
  DLB_REQUIRE(!c.name.empty(), "SweepMatrix::add_workload: empty name");
  if (workloads_defaulted_) {
    workloads_.clear();
    workloads_defaulted_ = false;
  }
  workloads_.push_back(std::move(c));
  return *this;
}

SweepMatrix& SweepMatrix::add_load_scale(Load k) {
  DLB_REQUIRE(k >= 0, "SweepMatrix::add_load_scale: negative scale");
  load_scales_.push_back(k);
  return *this;
}

SweepMatrix& SweepMatrix::add_self_loops(int d_loops) {
  DLB_REQUIRE(d_loops >= 0 || d_loops == kLoopsMatchDegree,
              "SweepMatrix::add_self_loops: bad d°");
  if (self_loops_defaulted_) {
    self_loops_.clear();
    self_loops_defaulted_ = false;
  }
  self_loops_.push_back(d_loops);
  return *this;
}

SweepMatrix& SweepMatrix::add_seed(std::uint64_t seed) {
  if (seeds_defaulted_) {
    seeds_.clear();
    seeds_defaulted_ = false;
  }
  seeds_.push_back(seed);
  return *this;
}

std::size_t SweepMatrix::size() const {
  return graphs_.size() * balancers_.size() * shapes_.size() *
         workloads_.size() * load_scales_.size() * self_loops_.size() *
         seeds_.size();
}

std::vector<Scenario> SweepMatrix::scenarios() const {
  DLB_REQUIRE(!graphs_.empty(), "SweepMatrix: no graphs added");
  DLB_REQUIRE(!balancers_.empty(), "SweepMatrix: no balancers added");
  DLB_REQUIRE(!shapes_.empty(), "SweepMatrix: no initial shapes added");
  DLB_REQUIRE(!load_scales_.empty(), "SweepMatrix: no load scales added");

  std::vector<Scenario> out;
  out.reserve(size());
  std::size_t index = 0;
  for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
    const int degree = graphs_[gi].graph->degree();
    for (std::size_t bi = 0; bi < balancers_.size(); ++bi) {
      for (std::size_t si = 0; si < shapes_.size(); ++si) {
        for (std::size_t wi = 0; wi < workloads_.size(); ++wi) {
          for (Load k : load_scales_) {
            for (int requested : self_loops_) {
              const int base =
                  requested == kLoopsMatchDegree ? degree : requested;
              const int effective =
                  balancers_[bi].adjust_self_loops(degree, base);
              for (std::uint64_t seed : seeds_) {
                Scenario s;
                s.index = index++;
                s.graph_index = gi;
                s.balancer_index = bi;
                s.shape_index = si;
                s.workload_index = wi;
                s.load_scale = k;
                s.self_loops = effective;
                s.self_loops_requested = base;
                s.seed = seed;
                out.push_back(s);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {
  DLB_REQUIRE(options_.threads >= 0, "SweepRunner: negative thread count");
}

int SweepRunner::effective_threads(std::size_t scenario_count) const {
  int t = options_.threads;
  if (t == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (scenario_count > 0 &&
      static_cast<std::size_t>(t) > scenario_count) {
    t = static_cast<int>(scenario_count);
  }
  return std::max(1, t);
}

std::vector<SweepRow> SweepRunner::run(const SweepMatrix& matrix) const {
  return run(matrix, matrix.scenarios());
}

SweepRow SweepRunner::run_one(const SweepMatrix& matrix, const Scenario& s,
                              ThreadPool* pool) const {
  const GraphCase& gc = matrix.graphs()[s.graph_index];
  const BalancerCase& bc = matrix.balancers()[s.balancer_index];
  const ShapeCase& sc = matrix.shapes()[s.shape_index];
  const WorkloadCase& wc = matrix.workloads()[s.workload_index];
  const Graph& g = *gc.graph;

  // Per-scenario ownership: fresh balancer, fresh workload, fresh
  // initial vector, fresh engine inside run_experiment. The graph is
  // shared but immutable.
  std::unique_ptr<Balancer> balancer = bc.factory(s.seed);
  std::unique_ptr<WorkloadProcess> workload;
  if (wc.make) {
    workload = wc.make(s.seed);
    DLB_REQUIRE(workload != nullptr,
                "SweepRunner: WorkloadCase factory returned null");
  }
  const LoadVector initial = sc.make(g, s.load_scale, s.seed);

  ExperimentSpec spec = options_.base;
  spec.self_loops = s.self_loops;
  spec.seed = s.seed;
  if (options_.adjust_spec) options_.adjust_spec(s, spec);
  spec.pool = pool;
  // Workloads must come through the WorkloadCase axis: a process set on
  // the base spec (or in adjust_spec) would be one mutable instance
  // shared by concurrently-running workers — and silently clobbering it
  // here would be worse. Fail loudly instead.
  DLB_REQUIRE(spec.workload == nullptr,
              "SweepRunner: set workloads through SweepMatrix::add_workload "
              "(per-scenario instances), not ExperimentSpec::workload");
  spec.workload = workload.get();  // null for the static case

  SweepRow row;
  row.scenario_index = s.index;
  row.graph_index = s.graph_index;
  row.family = gc.family;
  row.graph_name = g.name();
  row.balancer = bc.name;
  row.shape = sc.name;
  row.workload = wc.name;
  row.load_scale = s.load_scale;
  row.self_loops = s.self_loops;
  row.seed = s.seed;
  row.result = run_experiment(g, *balancer, initial, gc.mu, spec);
  return row;
}

std::vector<SweepRow> SweepRunner::run(
    const SweepMatrix& matrix, const std::vector<Scenario>& scenarios) const {
  std::vector<SweepRow> rows(scenarios.size());
  if (scenarios.empty()) return rows;

  int raw_threads = options_.threads;
  if (raw_threads == 0) raw_threads = ThreadPool::hardware_parallelism();
  // Outer mode unless it would idle threads AND the scenarios are big
  // enough that a round's work amortizes the two pool rendezvous per
  // step — on tiny graphs the serial scatter path beats a round-parallel
  // engine no matter the core count. Then the budget is split: one outer
  // worker per scenario, each running its engine round-parallel on
  // threads/outer cores (hybrid; inner when there is one scenario, whose
  // worker gets the whole budget).
  constexpr NodeId kMinNodesForRoundParallel = 1 << 15;
  const auto big_enough = [&] {
    for (const Scenario& s : scenarios) {
      if (matrix.graphs()[s.graph_index].graph->num_nodes() >=
          kMinNodesForRoundParallel) {
        return true;
      }
    }
    return false;
  };
  int n_threads = effective_threads(scenarios.size());
  int inner_width = 1;
  if (raw_threads > 1 &&
      scenarios.size() < static_cast<std::size_t>(raw_threads) &&
      big_enough()) {
    n_threads = static_cast<int>(scenarios.size());
    inner_width = raw_threads / n_threads;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;  // guards first_error and the on_result callback
  std::exception_ptr first_error;

  auto worker = [&]() {
    // Each outer worker owns its slice of the thread budget; rows stay
    // byte-identical because the engines' parallel pipeline is itself
    // thread-count-invariant.
    std::unique_ptr<ThreadPool> pool;
    if (inner_width > 1) pool = std::make_unique<ThreadPool>(inner_width);
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= scenarios.size()) return;
      try {
        rows[i] = run_one(matrix, scenarios[i], pool.get());
        // List position, not completion order.
        if (options_.on_result) {
          std::lock_guard<std::mutex> lock(error_mutex);
          options_.on_result(rows[i]);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (n_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return rows;
}

namespace {

/// Locale-independent, round-trip-exact double formatting so that CSV
/// output is byte-identical across runs and thread counts.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_samples(const std::vector<std::pair<Step, Load>>& samples) {
  std::ostringstream os;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i) os << '|';
    os << samples[i].first << ':' << samples[i].second;
  }
  return os.str();
}

}  // namespace

void SweepRunner::write_csv(const std::vector<SweepRow>& rows,
                            std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"scenario",   "family",      "graph",       "n",
              "d",          "algorithm",   "shape",       "workload",
              "load_scale",
              "self_loops", "seed",        "mu",          "t_balance",
              "horizon",    "t_reach",     "reached",
              "initial_disc", "final_disc",
              "balancedness",
              "continuous_disc", "delta",  "round_fair",  "observed_s",
              "min_load",   "max_remainder", "negative_seen", "samples",
              "injected",   "consumed",    "steady_mean", "steady_max",
              "steady_p99", "t_steady"});
  for (const SweepRow& row : rows) {
    const ExperimentResult& r = row.result;
    const FairnessReport& f = r.fairness;
    // Unaudited runs (lazy path, no auditor attached) have no fairness
    // data; blank those columns rather than emitting the default report
    // as if it had been measured.
    const bool audited = r.fairness_audited;
    // Steady-state columns are blank for untracked runs (no steady
    // window configured), like the fairness columns for unaudited runs.
    const bool steady = r.steady.tracked;
    csv.row({std::to_string(row.scenario_index),
             row.family,
             row.graph_name,
             std::to_string(r.n),
             std::to_string(r.d),
             row.balancer,
             row.shape,
             row.workload,
             std::to_string(row.load_scale),
             std::to_string(row.self_loops),
             std::to_string(row.seed),
             fmt_double(r.mu),
             std::to_string(r.t_balance),
             std::to_string(r.horizon),
             // Blank unless the run had a reach phase (spec.reach_target).
             r.t_reach >= 0 ? std::to_string(r.t_reach) : std::string(),
             // Disambiguates t_reach == reach_cap: "1" = target was hit
             // (possibly on the last allowed step), "0" = capped miss.
             r.t_reach >= 0 ? std::string(r.reached ? "1" : "0")
                            : std::string(),
             std::to_string(r.initial_discrepancy),
             std::to_string(r.final_discrepancy),
             fmt_double(r.final_balancedness),
             fmt_double(r.continuous_final_discrepancy),
             audited ? std::to_string(f.observed_delta) : std::string(),
             audited ? (f.round_fair ? "1" : "0") : "",
             audited ? std::to_string(f.observed_s) : std::string(),
             std::to_string(r.min_load_seen),
             audited ? std::to_string(f.max_remainder) : std::string(),
             audited ? (f.negative_seen ? "1" : "0") : "",
             fmt_samples(r.samples),
             std::to_string(r.injected_total),
             std::to_string(r.consumed_total),
             steady ? fmt_double(r.steady.window_mean) : std::string(),
             steady ? std::to_string(r.steady.window_max) : std::string(),
             steady ? std::to_string(r.steady.window_p99) : std::string(),
             // Blank both when untracked and when never steadied — same
             // sentinel convention as the t_reach column.
             steady && r.steady.t_steady >= 0
                 ? std::to_string(r.steady.t_steady)
                 : std::string()});
  }
}

std::string SweepRunner::csv_string(const std::vector<SweepRow>& rows) {
  std::ostringstream os;
  write_csv(rows, os);
  return os.str();
}

}  // namespace dlb
