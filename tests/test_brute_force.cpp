// Brute-force cross-validation: the engine, the flow tracker and the
// potentials are re-implemented here in the most naive way possible and
// compared against the library on small instances. Any divergence in
// token routing, cumulative accounting, or potential arithmetic fails
// these tests even if both implementations are internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/deviation.hpp"
#include "analysis/experiment.hpp"
#include "analysis/potentials.hpp"
#include "balancers/registry.hpp"
#include "balancers/rotor_router.hpp"
#include "core/engine.hpp"
#include "core/flow_tracker.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "service/admission.hpp"
#include "shard/sharded_engine.hpp"
#include "util/intmath.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

/// Naive reference: re-routes a step's flow matrix by brute force.
LoadVector naive_route(const Graph& g, int d_loops,
                       std::span<const Load> pre,
                       std::span<const Load> flows) {
  const int d_plus = g.degree() + d_loops;
  LoadVector next(pre.begin(), pre.end());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const Load* row = flows.data() + static_cast<std::size_t>(u) * d_plus;
    for (int p = 0; p < g.degree(); ++p) {
      next[static_cast<std::size_t>(u)] -= row[p];
      next[static_cast<std::size_t>(g.neighbor(u, p))] += row[p];
    }
    // Self-loop ports and the remainder never leave u: no-op.
  }
  return next;
}

/// Observer that replays every step through naive_route and compares.
class CrossChecker : public StepObserver {
 public:
  void on_step(Step t, const Graph& g, int d_loops,
               std::span<const Load> pre, std::span<const Load> flows,
               std::span<const Load> post) override {
    const LoadVector expected = naive_route(g, d_loops, pre, flows);
    ASSERT_EQ(expected.size(), post.size());
    for (std::size_t i = 0; i < post.size(); ++i) {
      ASSERT_EQ(post[i], expected[i]) << "node " << i << " at step " << t;
    }
    ++steps;
  }
  Step steps = 0;
};

class EngineCrossCheckTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EngineCrossCheckTest, EngineRoutingMatchesNaiveReference) {
  const Algorithm algo = GetParam();
  for (const Graph& g : {make_cycle(7), make_torus2d(3, 4), make_petersen()}) {
    auto b = make_balancer(algo, 3);
    Engine e(g, EngineConfig{.self_loops = g.degree()}, *b,
             random_initial(g.num_nodes(), 60, 5));
    CrossChecker checker;
    e.add_observer(checker);
    e.run(120);
    EXPECT_EQ(checker.steps, 120) << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EngineCrossCheckTest,
                         ::testing::ValuesIn(all_algorithms()),
                         [](const auto& info) {
                           std::string n = algorithm_name(info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

// ------------------------------------------- cumulative flow accounting --

TEST(BruteForce, FlowTrackerMatchesManualAccumulation) {
  const Graph g = make_cycle(5);
  const int d_loops = 2;
  RotorRouter b(7);

  // Manual accumulator alongside the library's FlowTracker.
  class ManualSum : public StepObserver {
   public:
    std::map<std::pair<NodeId, int>, Load> cum;
    void on_step(Step, const Graph& g2, int dl, std::span<const Load>,
                 std::span<const Load> flows, std::span<const Load>) override {
      const int width = g2.degree() + dl;
      for (NodeId u = 0; u < g2.num_nodes(); ++u) {
        for (int p = 0; p < width; ++p) {
          cum[{u, p}] += flows[static_cast<std::size_t>(u) * width +
                               static_cast<std::size_t>(p)];
        }
      }
    }
  } manual;

  Engine e(g, EngineConfig{.self_loops = d_loops}, b,
           random_initial(5, 40, 9));
  FlowTracker tracker;
  e.add_observer(tracker);
  e.add_observer(manual);
  e.run(200);

  for (NodeId u = 0; u < 5; ++u) {
    for (int p = 0; p < 2; ++p) {
      EXPECT_EQ(tracker.cumulative(u, p), (manual.cum[{u, p}]));
    }
    for (int l = 0; l < d_loops; ++l) {
      EXPECT_EQ(tracker.cumulative_self_loop(u, l), (manual.cum[{u, 2 + l}]));
    }
  }
}

// ------------------------------------------------ potential arithmetic --

TEST(BruteForce, PotentialsMatchElementwiseDefinition) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    LoadVector x(12);
    for (auto& v : x) v = rng.uniform_int(0, 100);
    const Load c = rng.uniform_int(0, 10);
    const int d_plus = static_cast<int>(rng.uniform_int(1, 12));
    const Load s = rng.uniform_int(0, 5);

    Load phi = 0, phip = 0;
    for (Load v : x) {
      if (v > c * d_plus) phi += v - c * d_plus;
      if (v < c * d_plus + s) phip += c * d_plus + s - v;
    }
    EXPECT_EQ(phi_potential(x, c, d_plus), phi);
    EXPECT_EQ(phi_prime_potential(x, c, d_plus, s), phip);
  }
}

// -------------------------------------------- rotor dealing, exhaustive --

TEST(BruteForce, RotorDealMatchesTokenByTokenSimulation) {
  // Deal x tokens one at a time around the cyclic order and compare with
  // the closed-form bulk deal in RotorRouter::decide, for every load and
  // every starting rotor position.
  const Graph g = make_cycle(4);  // d = 2
  const int d_loops = 3;          // d⁺ = 5
  const int d_plus = 5;
  for (int start = 0; start < d_plus; ++start) {
    for (Load x = 0; x <= 23; ++x) {
      RotorRouter b(0);
      b.set_initial_rotors({start, 0, 0, 0});
      b.reset(g, d_loops);
      LoadVector flows(static_cast<std::size_t>(d_plus), 0);
      b.decide(0, x, 0, flows);

      LoadVector expected(static_cast<std::size_t>(d_plus), 0);
      int rotor = start;
      for (Load k = 0; k < x; ++k) {
        ++expected[static_cast<std::size_t>(rotor)];
        rotor = (rotor + 1) % d_plus;
      }
      EXPECT_EQ(flows, expected) << "start=" << start << " x=" << x;
      EXPECT_EQ(b.rotor(0), static_cast<int>((start + x) % d_plus));
    }
  }
}

// ----------------------------------- continuous-yardstick differential --

/// The tier-1 differential gate: ROTOR-ROUTER and SEND(floor) against the
/// continuous process on small cycles and tori. At T = 16·log(nK)/µ the
/// yardstick is essentially flat, so the discrete discrepancy *is* the
/// deviation ‖x_T − y_T‖∞ the theorems bound. Both schemes are
/// cumulatively δ-fair (δ = 1 resp. 0) and run with d° = d, so Theorem
/// 2.3 applies: disc(T) = O((δ+1)·d·min{√(log n/µ), √n}); the weaker
/// RSW guarantee O(d·log n/µ) must hold a fortiori.
TEST(ContinuousYardstick, RotorRouterAndSendFloorMeetThm23OnSmallGraphs) {
  struct GraphUnderTest {
    Graph g;
    double mu;
  };
  std::vector<GraphUnderTest> graphs;
  graphs.push_back({make_cycle(16), 1.0 - lambda2_cycle(16, 2)});
  graphs.push_back({make_cycle(25), 1.0 - lambda2_cycle(25, 2)});
  graphs.push_back({make_torus2d(4, 4), 1.0 - lambda2_torus({4, 4}, 4)});
  graphs.push_back({make_torus2d(3, 5), 1.0 - lambda2_torus({3, 5}, 4)});

  const struct {
    Algorithm algorithm;
    double delta;  // the scheme's cumulative fairness class
  } schemes[] = {{Algorithm::kRotorRouter, 1.0},
                 {Algorithm::kSendFloor, 0.0}};

  for (const GraphUnderTest& gut : graphs) {
    for (const auto& scheme : schemes) {
      auto balancer = make_balancer(scheme.algorithm, /*seed=*/3);
      ExperimentSpec spec;
      spec.self_loops = gut.g.degree();  // d⁺ = 2d, as Thm 2.3 assumes
      const ExperimentResult r = run_experiment(
          gut.g, *balancer, bimodal_initial(gut.g.num_nodes(), 64), gut.mu,
          spec);

      // The yardstick must be flat at T — that is what makes the
      // discrete discrepancy comparable to the deviation bound at all.
      EXPECT_LT(r.continuous_final_discrepancy, 1.0)
          << gut.g.name() << " / " << r.algorithm;

      const double thm23 = bound_thm23(scheme.delta, r.d, r.n, gut.mu);
      const double rsw = bound_rsw(r.d, r.n, gut.mu);
      EXPECT_LE(static_cast<double>(r.final_discrepancy), thm23)
          << gut.g.name() << " / " << r.algorithm << " (Thm 2.3, δ="
          << scheme.delta << ")";
      EXPECT_LE(static_cast<double>(r.final_discrepancy), rsw)
          << gut.g.name() << " / " << r.algorithm << " (RSW)";

      // Both schemes conserve load and never go negative.
      EXPECT_GE(r.min_load_seen, 0) << gut.g.name() << " / " << r.algorithm;
      EXPECT_LE(static_cast<double>(r.fairness.observed_delta), scheme.delta)
          << gut.g.name() << " / " << r.algorithm;
    }
  }
}

/// Lock-step differential: the per-step sup-norm deviation between the
/// discrete run and the continuous process stays within the RSW envelope
/// over the whole horizon, not just at T.
TEST(ContinuousYardstick, PerStepDeviationStaysWithinRswEnvelope) {
  const Graph g = make_torus2d(4, 4);
  const double mu = 1.0 - lambda2_torus({4, 4}, 4);
  const LoadVector initial = bimodal_initial(g.num_nodes(), 64);

  for (Algorithm a : {Algorithm::kRotorRouter, Algorithm::kSendFloor}) {
    auto balancer = make_balancer(a, /*seed=*/3);
    Engine e(g, EngineConfig{.self_loops = g.degree()}, *balancer, initial);
    DeviationTracker tracker(g, g.degree(), initial);
    e.add_observer(tracker);
    e.run(balancing_time(g.num_nodes(), 64, mu));
    EXPECT_LE(tracker.max_seen(), bound_rsw(g.degree(), g.num_nodes(), mu))
        << algorithm_name(a);
  }
}

// ------------------------------------------ reference round, every engine --

/// One round of the model from its definition alone: dense loads,
/// decide() per node in ascending order into a dense flow matrix, every
/// token moved by hand, and a Σ ledger of its own. No kernel, SIMD, pool
/// or shard is involved, so each engine below is checked against
/// something that shares none of its code paths.
class ReferenceRound {
 public:
  ReferenceRound(const Graph& g, int d_loops, Balancer& b, LoadVector loads)
      : g_(g), d_loops_(d_loops), b_(b), loads_(std::move(loads)),
        flows_(loads_.size() * static_cast<std::size_t>(g.degree() + d_loops)) {
    b_.reset(g, d_loops);
    for (const Load x : loads_) total_ += x;
  }

  const LoadVector& loads() const { return loads_; }
  Load total() const { return total_; }
  Load injected() const { return injected_; }
  Load consumed() const { return consumed_; }

  /// The workload step before the next round: deltas[u] applied in node
  /// order, d > 0 injecting d tokens and d < 0 taking min(x, −d) from a
  /// node with x > 0.
  void churn(const std::vector<Load>& deltas) {
    for (std::size_t u = 0; u < loads_.size(); ++u) {
      Load& x = loads_[u];
      const Load d = deltas[u];
      if (d > 0) {
        x += d;
        total_ += d;
        injected_ += d;
      } else if (d < 0 && x > 0) {
        const Load take = std::min(x, -d);
        x -= take;
        total_ -= take;
        consumed_ += take;
      }
    }
  }

  void step() {
    FlowSink sink(g_, d_loops_, flows_.data());
    b_.prepare_round(loads_, t_, sink);
    std::fill(flows_.begin(), flows_.end(), 0);
    LoadVector next = loads_;
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      const std::span<Load> row = sink.row(u);
      const Load x = loads_[static_cast<std::size_t>(u)];
      b_.decide(u, x, t_, row);
      Load sent = 0;
      for (const Load f : row) sent += f;
      ASSERT_TRUE(b_.allows_negative() || sent <= x)
          << "reference: node " << u << " oversends";
      for (int p = 0; p < g_.degree(); ++p) {
        next[static_cast<std::size_t>(u)] -= row[static_cast<std::size_t>(p)];
        next[static_cast<std::size_t>(g_.neighbor(u, p))] +=
            row[static_cast<std::size_t>(p)];
      }
    }
    Load sum = 0;
    for (const Load x : next) sum += x;
    ASSERT_EQ(sum, total_) << "reference ledger";
    loads_ = std::move(next);
    ++t_;
  }

 private:
  const Graph& g_;
  int d_loops_;
  Balancer& b_;
  LoadVector loads_;
  LoadVector flows_;
  Load total_ = 0;
  Load injected_ = 0;
  Load consumed_ = 0;
  Step t_ = 0;
};

/// Records nothing; attaching it moves a flat engine onto its row round.
class NoOpObserver : public StepObserver {
 public:
  void on_step(Step, const Graph&, int, std::span<const Load>,
               std::span<const Load>, std::span<const Load>) override {}
};

/// A d = 4 generic multigraph: a ring whose neighbours are joined twice.
Graph doubled_ring(NodeId n) {
  std::vector<NodeId> adj;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId r = (u + 1) % n;
    const NodeId l = (u + n - 1) % n;
    adj.insert(adj.end(), {r, r, l, l});
  }
  return Graph(n, 4, std::move(adj), "doubled-ring");
}

TEST(ReferenceRound, EveryEngineMatchesTheDefinitionEveryRound) {
  constexpr Step kRounds = 30;
  std::vector<int> shard_counts = {1, 3};
  if (const char* extra = std::getenv("DLB_TEST_EXTRA_SHARDS")) {
    const int k = std::atoi(extra);
    if (k >= 1 && k != 1 && k != 3) shard_counts.push_back(k);
  }
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("cycle", make_cycle(31));
  graphs.emplace_back("torus", make_torus2d(7, 5));
  graphs.emplace_back("hypercube", make_hypercube(4));
  graphs.emplace_back("random-regular", make_random_regular(40, 4, 5));
  graphs.emplace_back("multigraph", doubled_ring(15));
  // Three threads split n = 31, 35, 40 and 30 into uneven parts.
  ThreadPool pool3(3);
  ThreadPool pool(4);
  NoOpObserver no_op;
  std::uint64_t seed = 100;
  for (const std::string& name : registered_balancer_names()) {
    const BalancerFactory factory = find_balancer_factory(name);
    const BalancerTraits traits = find_balancer_traits(name);
    for (const auto& [label, g] : graphs) {
      const int d = g.degree();
      const int lo = traits.exact_d_loops ? d : traits.min_loops(d);
      std::vector<int> loop_counts = {lo};
      if (lo != d) loop_counts.push_back(d);
      for (const int d_loops : loop_counts) {
        ++seed;
        const LoadVector initial = random_initial(g.num_nodes(), 300, seed);
        const auto ref_b = factory(seed);
        ReferenceRound ref(g, d_loops, *ref_b, initial);
        struct Run {
          std::string engine;
          std::unique_ptr<Balancer> b;
          std::unique_ptr<Engine> flat;
          std::unique_ptr<ShardedEngine> sharded;
        };
        std::vector<Run> runs;
        const auto add_flat = [&](std::string engine, ThreadPool* on,
                                  bool observed) {
          runs.push_back({std::move(engine), factory(seed), nullptr, nullptr});
          Run& r = runs.back();
          r.flat = std::make_unique<Engine>(
              g, EngineConfig{.self_loops = d_loops}, *r.b, initial);
          r.flat->set_thread_pool(on);
          if (observed) r.flat->add_observer(no_op);
        };
        add_flat("flat serial", nullptr, false);
        add_flat("flat pool=3", &pool3, false);
        add_flat("flat pool=4", &pool, false);
        add_flat("flat observed serial", nullptr, true);
        add_flat("flat observed pool=4", &pool, true);
        for (const int k : shard_counts) {
          for (const bool pooled : {false, true}) {
            runs.push_back({"sharded k=" + std::to_string(k) +
                                (pooled ? " pool=4" : " serial"),
                            factory(seed), nullptr, nullptr});
            Run& r = runs.back();
            r.sharded = std::make_unique<ShardedEngine>(
                g, ShardedEngineConfig{.self_loops = d_loops}, *r.b, initial,
                k);
            if (pooled) r.sharded->set_thread_pool(&pool);
          }
        }
        for (Step t = 1; t <= kRounds; ++t) {
          ref.step();
          ASSERT_FALSE(::testing::Test::HasFatalFailure());
          for (Run& r : runs) {
            const auto where = [&] {
              return "seed=" + std::to_string(seed) + " balancer=" + name +
                     " graph=" + label + " d_loops=" +
                     std::to_string(d_loops) + " engine=" + r.engine +
                     " round=" + std::to_string(t);
            };
            LoadVector got;
            try {
              if (r.flat) {
                r.flat->step_parallel();
                got = r.flat->loads();
              } else {
                r.sharded->step();
                got = r.sharded->gather_loads();
              }
            } catch (const std::exception& e) {
              FAIL() << where() << " threw: " << e.what();
            }
            const auto diff = std::mismatch(got.begin(), got.end(),
                                            ref.loads().begin());
            ASSERT_TRUE(diff.first == got.end())
                << where() << " first differing node="
                << (diff.first - got.begin()) << " reference=" << *diff.second
                << " engine=" << *diff.first;
            ASSERT_EQ(r.flat ? r.flat->total() : r.sharded->total(),
                      ref.total())
                << where();
          }
        }
      }
    }
  }
}

// --------------------------------- reference workload rounds, every engine --

/// The per-node FIFO admission policy from its definition: a deque of
/// waiting nodes beside a map of their pending tokens. A round passes the
/// inner process's negative deltas through, books its positive ones (a
/// node with nothing pending joins the back), and only then admits up to
/// `cap` tokens from the front, a node at a time.
class FifoModel {
 public:
  FifoModel(WorkloadProcess& inner, Load cap) : inner_(inner), cap_(cap) {}

  /// Round t's deltas, given the loads before it.
  std::vector<Load> round(Step t, const LoadVector& loads) {
    inner_.prepare(t, loads);
    std::vector<Load> out(loads.size(), 0);
    for (std::size_t u = 0; u < loads.size(); ++u) {
      const Load d = inner_.delta(static_cast<NodeId>(u), t);
      if (d < 0) out[u] = d;
      if (d > 0) {
        if (pending_[u] == 0) fifo_.push_back(u);
        pending_[u] += d;
      }
    }
    for (Load budget = cap_; budget > 0 && !fifo_.empty();) {
      const std::size_t u = fifo_.front();
      const Load granted = std::min(pending_[u], budget);
      // Applying this grant apart from the node's consumption would give
      // another load: the case a fused apply must get right.
      if (out[u] < 0 && loads[u] < -out[u]) ++split_sensitive_;
      out[u] += granted;
      pending_[u] -= granted;
      budget -= granted;
      if (pending_[u] == 0) {
        pending_.erase(u);
        fifo_.pop_front();
      }
    }
    return out;
  }

  /// Grants so far to a node whose consumption its load did not cover.
  int split_sensitive() const { return split_sensitive_; }

 private:
  WorkloadProcess& inner_;
  Load cap_;
  std::deque<std::size_t> fifo_;
  std::map<std::size_t, Load> pending_;
  int split_sensitive_ = 0;
};

TEST(ReferenceRound, WorkloadRoundsMatchTheDefinitionOnEveryEngine) {
  // Poisson, counter and burst churn read through delta() in node order,
  // and Poisson demand behind the admission cap against FifoModel, on the
  // flat engine (serial, 3 and 4 threads) and sharded at k = 1 and 3. The
  // low-load queue keeps loads near zero, so nodes at the ring's front are
  // granted tokens in rounds whose consumption their load cannot cover.
  const auto poisson = [](double in, double out) {
    return [=]() -> std::unique_ptr<WorkloadProcess> {
      return std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = in, .departure_rate = out});
    };
  };
  const struct Spec {
    const char* label;
    std::function<std::unique_ptr<WorkloadProcess>()> make;
    Load cap;       ///< 0: the process alone, else behind an AdmissionQueue
    Load max_load;  ///< initial loads are drawn from [0, max_load]
  } specs[] = {
      {"poisson", poisson(0.6, 0.5), 0, 30},
      {"counter",
       [] {
         return std::make_unique<CounterWorkload>(CounterWorkload::Params{
             .arrival_period = 3, .arrival_amount = 2, .departure_period = 4,
             .departure_amount = 1});
       },
       0, 30},
      {"burst",
       [] {
         return std::make_unique<BurstWorkload>(BurstWorkload::Params{
             .period = 4, .burst = 64, .drain_period = 3, .drain_amount = 1});
       },
       0, 30},
      {"admit(poisson)", poisson(0.6, 0.3), 8, 30},
      {"admit(poisson) low load", poisson(0.3, 0.9), 2, 1},
  };
  struct Shape {
    const char* label;
    Graph g;
    Step rounds;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"cycle", make_cycle(31), 30});
  shapes.push_back({"torus", make_torus2d(7, 5), 30});
  // Admission blocks of ~1100 nodes, past one 1024-node fill chunk.
  shapes.push_back({"cycle-70001", make_cycle(70001), 6});
  ThreadPool pool3(3);
  ThreadPool pool(4);
  std::uint64_t seed = 500;
  for (const Spec& spec : specs) {
    int split_sensitive = 0;
    for (const Shape& shape : shapes) {
      const Graph& g = shape.g;
      const NodeId n = g.num_nodes();
      for (const Algorithm algo :
           {Algorithm::kSendFloor, Algorithm::kRotorRouter}) {
        ++seed;
        const int d_loops = g.degree();
        const LoadVector initial = random_initial(n, spec.max_load, seed);
        // The reference's demand: its own process, read through delta().
        const std::unique_ptr<WorkloadProcess> ref_inner = spec.make();
        ref_inner->reset(n, seed);
        FifoModel fifo(*ref_inner, spec.cap);
        const auto ref_b = make_balancer(algo, seed);
        ReferenceRound ref(g, d_loops, *ref_b, initial);
        struct Run {
          std::string engine;
          std::unique_ptr<WorkloadProcess> inner;
          std::unique_ptr<AdmissionQueue> queue;
          std::unique_ptr<Balancer> b;
          std::unique_ptr<Engine> flat;
          std::unique_ptr<ShardedEngine> sharded;
        };
        std::vector<Run> runs;
        const auto add = [&](std::string engine, ThreadPool* on, int shards) {
          runs.push_back({std::move(engine), spec.make(), nullptr,
                          make_balancer(algo, seed), nullptr, nullptr});
          Run& r = runs.back();
          WorkloadProcess* w = r.inner.get();
          if (spec.cap > 0) {
            r.queue = std::make_unique<AdmissionQueue>(
                *r.inner, AdmissionQueue::Params{.round_cap = spec.cap});
            w = r.queue.get();
          }
          w->reset(n, seed);
          if (shards == 0) {
            r.flat = std::make_unique<Engine>(
                g, EngineConfig{.self_loops = d_loops}, *r.b, initial);
            r.flat->set_workload(w);
            r.flat->set_thread_pool(on);
          } else {
            r.sharded = std::make_unique<ShardedEngine>(
                g, ShardedEngineConfig{.self_loops = d_loops}, *r.b, initial,
                shards);
            r.sharded->set_workload(w);
            r.sharded->set_thread_pool(on);
          }
        };
        add("flat serial", nullptr, 0);
        add("flat pool=3", &pool3, 0);
        add("flat pool=4", &pool, 0);
        for (const int k : {1, 3}) {
          add("sharded k=" + std::to_string(k) + " serial", nullptr, k);
          add("sharded k=" + std::to_string(k) + " pool=4", &pool, k);
        }
        for (Step t = 0; t < shape.rounds; ++t) {
          std::vector<Load> deltas;
          if (spec.cap > 0) {
            deltas = fifo.round(t, ref.loads());
          } else {
            ref_inner->prepare(t, ref.loads());
            for (NodeId u = 0; u < n; ++u) {
              deltas.push_back(ref_inner->delta(u, t));
            }
          }
          ref.churn(deltas);
          ref.step();
          ASSERT_FALSE(::testing::Test::HasFatalFailure());
          for (Run& r : runs) {
            const auto where = [&] {
              return "seed=" + std::to_string(seed) + " workload=" +
                     spec.label + " graph=" + shape.label +
                     " balancer=" + algorithm_name(algo) +
                     " engine=" + r.engine + " round=" +
                     std::to_string(t + 1);
            };
            LoadVector got;
            Load injected = 0;
            Load consumed = 0;
            try {
              if (r.flat) {
                r.flat->step_parallel();
                got = r.flat->loads();
                injected = r.flat->injected_total();
                consumed = r.flat->consumed_total();
              } else {
                r.sharded->step();
                got = r.sharded->gather_loads();
                injected = r.sharded->injected_total();
                consumed = r.sharded->consumed_total();
              }
            } catch (const std::exception& e) {
              FAIL() << where() << " threw: " << e.what();
            }
            const auto diff = std::mismatch(got.begin(), got.end(),
                                            ref.loads().begin());
            ASSERT_TRUE(diff.first == got.end())
                << where() << " first differing node="
                << (diff.first - got.begin()) << " reference=" << *diff.second
                << " engine=" << *diff.first;
            ASSERT_EQ(injected, ref.injected()) << where();
            ASSERT_EQ(consumed, ref.consumed()) << where();
          }
        }
        split_sensitive += fifo.split_sensitive();
      }
    }
    if (std::string(spec.label) == "admit(poisson) low load") {
      EXPECT_GT(split_sensitive, 0) << "no grant met an uncovered consumption";
    }
  }
}

TEST(BruteForce, IntMathAgainstFloatingPointReference) {
  for (std::int64_t a = -300; a <= 300; ++a) {
    for (std::int64_t q : {1, 2, 3, 5, 7, 11}) {
      EXPECT_EQ(floor_div(a, q),
                static_cast<std::int64_t>(
                    std::floor(static_cast<double>(a) / static_cast<double>(q))));
      EXPECT_EQ(ceil_div(a, q),
                static_cast<std::int64_t>(
                    std::ceil(static_cast<double>(a) / static_cast<double>(q))));
    }
  }
}

}  // namespace
}  // namespace dlb
