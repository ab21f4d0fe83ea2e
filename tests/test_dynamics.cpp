// Tests for the src/dynamics subsystem: workload generators, the
// pre-round engine hook with its extended conservation audit
// (Σx == Σx₀ + injected − consumed), steady-state tracking, and — the
// load-bearing property — byte-identical dynamic trajectories at thread
// counts {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/sweep.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dimexchange/de_engine.hpp"
#include "dynamics/poisson_fill.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "irregular/iengine.hpp"
#include "markov/spectral.hpp"
#include "service/admission.hpp"
#include "shard/sharded_engine.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ---------------------------------------------------------- generators --

TEST(CounterWorkload, DeltaFollowsTheStaggeredPattern) {
  CounterWorkload w({.arrival_period = 4,
                     .arrival_amount = 3,
                     .departure_period = 4,
                     .departure_amount = 2});
  const Graph g = make_cycle(8);
  w.reset(g.num_nodes(), 0);
  for (NodeId u = 0; u < 8; ++u) {
    for (Step t = 0; t < 12; ++t) {
      Load expect = 0;
      if ((t + u) % 4 == 0) expect += 3;
      if ((t + u) % 4 == 3) expect -= 2;
      EXPECT_EQ(w.delta(u, t), expect) << "u=" << u << " t=" << t;
    }
  }
  EXPECT_TRUE(w.parallel_generate_safe());
  EXPECT_EQ(w.name(), "counter(in=3/4,out=2/4)");
}

TEST(CounterWorkload, ZeroPeriodDisablesThatSide) {
  CounterWorkload w({.arrival_period = 2,
                     .arrival_amount = 1,
                     .departure_period = 0,
                     .departure_amount = 5});
  const Graph g = make_cycle(4);
  w.reset(g.num_nodes(), 0);
  for (Step t = 0; t < 8; ++t) EXPECT_GE(w.delta(0, t), 0);
}

TEST(WorkloadProcess, ParallelGenerationIsOptIn) {
  // Mirror of Balancer::parallel_decide_safe: a third-party process that
  // doesn't state its contract is generated serially, never raced.
  class MinimalProcess : public WorkloadProcess {
   public:
    std::string name() const override { return "minimal"; }
    void reset(NodeId, std::uint64_t) override {}
    Load delta(NodeId, Step) override { return 0; }
  };
  MinimalProcess p;
  EXPECT_FALSE(p.parallel_generate_safe());
  // The built-ins all opt in.
  EXPECT_TRUE(PoissonWorkload({0.1, 0.1}).parallel_generate_safe());
  EXPECT_TRUE(BurstWorkload({}).parallel_generate_safe());
  EXPECT_TRUE(AdversarialInjector({}).parallel_generate_safe());
}

TEST(PoissonDraw, MeanApproximatesLambda) {
  Rng rng(99);
  const double lambda = 1.5;
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(poisson_draw(rng, lambda));
  }
  EXPECT_NEAR(sum / trials, lambda, 0.05);
  EXPECT_EQ(poisson_draw(rng, 0.0), 0);
}

namespace {

/// Sample mean and variance of `trials` draws at rate `lambda`.
std::pair<double, double> poisson_moments(double lambda, int trials,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> draws;
  draws.reserve(static_cast<std::size_t>(trials));
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto d = static_cast<double>(poisson_draw(rng, lambda));
    draws.push_back(d);
    sum += d;
  }
  const double mean = sum / trials;
  double var = 0.0;
  for (double d : draws) var += (d - mean) * (d - mean);
  return {mean, var / (trials - 1)};
}

}  // namespace

TEST(PoissonDraw, SplitRegimeHasPoissonMoments) {
  // 64 < λ <= 4096: the exact additive split. Rates here used to abort
  // outright ("rate too large for the product method"); now they must
  // draw with Poisson mean AND variance ≈ λ (a wrong split — e.g.
  // summing copies of the same draw — would inflate the variance).
  const double lambda = 100.0;
  const auto [mean, var] = poisson_moments(lambda, 20000, 7);
  EXPECT_NEAR(mean, lambda, 1.0);
  EXPECT_NEAR(var, lambda, 0.1 * lambda);
}

TEST(PoissonDraw, NormalRegimeHasPoissonMoments) {
  // λ > 4096: the inverse-CDF normal approximation, O(1) per draw.
  const double lambda = 10000.0;
  const auto [mean, var] = poisson_moments(lambda, 20000, 8);
  EXPECT_NEAR(mean, lambda, 5.0);
  EXPECT_NEAR(var, lambda, 0.1 * lambda);
}

TEST(PoissonDraw, DeterministicAcrossRegimeBoundaries) {
  // The regime seams are fixed constants; a given (seed, λ) pair must
  // draw the same value on every run and platform branch. Probe both
  // sides of both seams (kPoissonProductCap = 64, kPoissonSplitCap =
  // 4096) plus a deep-normal rate.
  for (double lambda : {kPoissonProductCap - 0.5, kPoissonProductCap,
                        kPoissonProductCap + 0.5, kPoissonSplitCap - 0.5,
                        kPoissonSplitCap, kPoissonSplitCap + 0.5, 1.0e6}) {
    SCOPED_TRACE(lambda);
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 50; ++i) {
      const Load da = poisson_draw(a, lambda);
      EXPECT_EQ(da, poisson_draw(b, lambda));
      EXPECT_GE(da, 0);
      // Loose plausibility band: within 20 standard deviations.
      EXPECT_LT(static_cast<double>(da),
                lambda + 20.0 * std::sqrt(lambda) + 10.0);
    }
  }
}

namespace {

/// The per-draw product method as it stood before its constants were
/// hoisted: exp(−λ) (and the split regime's chunking) recomputed on every
/// draw. Valid for λ <= kPoissonSplitCap.
Load per_draw_reference(Rng& rng, double lambda) {
  const auto product = [&rng](double rate) {
    const double limit = std::exp(-rate);
    double p = 1.0;
    Load k = 0;
    do {
      ++k;
      p *= rng.uniform_real();
    } while (p > limit);
    return k - 1;
  };
  if (lambda == 0.0) return 0;
  if (lambda <= kPoissonProductCap) return product(lambda);
  const int chunks = static_cast<int>(std::ceil(lambda / kPoissonProductCap));
  Load sum = 0;
  for (int i = 0; i < chunks; ++i) sum += product(lambda / chunks);
  return sum;
}

}  // namespace

TEST(PoissonDraw, HoistedSamplerIsBitIdenticalAcrossRegimeSeams) {
  const double seams[] = {0.0,
                          0.05,
                          kPoissonProductCap - 0.5,
                          kPoissonProductCap,
                          kPoissonProductCap + 0.5,
                          kPoissonSplitCap - 0.5,
                          kPoissonSplitCap,
                          kPoissonSplitCap + 0.5,
                          1.0e6};
  for (double lambda : seams) {
    SCOPED_TRACE(lambda);
    const PoissonSampler sampler(lambda);
    Rng hoisted(77);
    Rng plain(77);
    Rng reference(77);
    for (int i = 0; i < 200; ++i) {
      const Load d = sampler(hoisted);
      ASSERT_EQ(d, poisson_draw(plain, lambda)) << "draw " << i;
      if (lambda <= kPoissonSplitCap) {
        ASSERT_EQ(d, per_draw_reference(reference, lambda)) << "draw " << i;
      }
    }
  }
  // PoissonWorkload draws arrivals then departures from the node's stream.
  PoissonWorkload w({.arrival_rate = kPoissonProductCap + 0.5,
                     .departure_rate = kPoissonProductCap - 0.5});
  w.reset(8, 3);
  for (Step t = 0; t < 4; ++t) {
    for (NodeId u = 0; u < 8; ++u) {
      Rng rng(stream_key(3, static_cast<std::uint64_t>(u),
                         static_cast<std::uint64_t>(t)));
      const Load in = per_draw_reference(rng, kPoissonProductCap + 0.5);
      const Load out = per_draw_reference(rng, kPoissonProductCap - 0.5);
      EXPECT_EQ(w.delta(u, t), in - out) << "u=" << u << " t=" << t;
    }
  }
}

TEST(PoissonDraw, RejectsOnlyLedgerOverflowRates) {
  Rng rng(5);
  EXPECT_THROW(poisson_draw(rng, -1.0), invariant_error);
  EXPECT_THROW(poisson_draw(rng, 2.0e15), invariant_error);
  // The old hard cap at 64 is gone.
  EXPECT_NO_THROW(poisson_draw(rng, 65.0));
  EXPECT_NO_THROW(poisson_draw(rng, 5000.0));
}

TEST(PoissonWorkload, AcceptsRatesAboveTheOldProductCap) {
  // The constructor used to reject rates > 64; high-traffic service
  // scenarios need them. Net drift over n nodes and T rounds must track
  // arrival − departure.
  PoissonWorkload w(
      PoissonWorkload::Params{.arrival_rate = 500.0, .departure_rate = 480.0});
  w.reset(64, 3);
  double net = 0.0;
  int samples = 0;
  for (Step t = 0; t < 40; ++t) {
    for (NodeId u = 0; u < 64; ++u) {
      net += static_cast<double>(w.delta(u, t));
      ++samples;
    }
  }
  // E[delta] = 20, sd ≈ √980 ≈ 31.3 per sample; 2560 samples → the mean
  // estimator's sd ≈ 0.62. A ±3 band is ~5 sigma.
  EXPECT_NEAR(net / samples, 20.0, 3.0);
}

TEST(PoissonWorkload, DeltasArePureInNodeRoundSeed) {
  const Graph g = make_cycle(16);
  PoissonWorkload a({.arrival_rate = 0.7, .departure_rate = 0.3});
  PoissonWorkload b({.arrival_rate = 0.7, .departure_rate = 0.3});
  a.reset(g.num_nodes(), 5);
  b.reset(g.num_nodes(), 5);
  // Same seed: identical deltas regardless of evaluation order. Record
  // a's values in ascending (t, u) order, then query b in the reverse
  // order — an implementation leaking sequential-stream state into
  // delta() diverges here.
  std::vector<Load> recorded;
  for (Step t = 0; t < 10; ++t) {
    for (NodeId u = 0; u < 16; ++u) recorded.push_back(a.delta(u, t));
  }
  for (Step t = 9; t >= 0; --t) {
    for (NodeId u = 15; u >= 0; --u) {
      EXPECT_EQ(b.delta(u, t),
                recorded[static_cast<std::size_t>(t) * 16 +
                         static_cast<std::size_t>(u)])
          << "u=" << u << " t=" << t;
    }
  }
  PoissonWorkload c({.arrival_rate = 0.7, .departure_rate = 0.3});
  c.reset(g.num_nodes(), 6);
  int diffs = 0;
  for (Step t = 0; t < 20; ++t) {
    for (NodeId u = 0; u < 16; ++u) diffs += (a.delta(u, t) != c.delta(u, t));
  }
  EXPECT_GT(diffs, 0);  // different seed, different stream
}

/// FNV-1a over the little-endian bytes of `v`, continuing from `h`.
std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Known answers for the Poisson stream: the hash of delta() over 2^14
// nodes × 5 rounds (seed 3), in (t, u) order, at the service-overload
// rates, at the defaults and at rates where most or every node needs
// the full draw. Every fill() path is checked against delta(), so these
// pin all of them to one stream.
TEST(PoissonWorkload, DeltasKnownAnswers) {
  const struct {
    double in, out;
    std::uint64_t hash;
  } cases[] = {
      {0.08, 0.05, 0x532ff30b9119ae35ULL},
      {0.5, 0.5, 0x5ecc5032acee2a7aULL},
      {5.0, 3.0, 0x1ff4ba6c5c74ed94ULL},
      {40.0, 0.05, 0xac4d086b279a85beULL},
  };
  constexpr NodeId kNodes = NodeId{1} << 14;
  for (const auto& c : cases) {
    PoissonWorkload w({.arrival_rate = c.in, .departure_rate = c.out});
    w.reset(kNodes, 3);
    std::uint64_t h = kFnvBasis;
    for (Step t = 0; t < 5; ++t) {
      for (NodeId u = 0; u < kNodes; ++u) {
        h = fnv_word(h, static_cast<std::uint64_t>(w.delta(u, t)));
      }
    }
    EXPECT_EQ(h, c.hash) << w.name() << std::hex << " hash 0x" << h;
  }
}

// Known answer for a service round: the final loads of SEND(floor) on a
// 2^14 cycle after 120 rounds of the service-overload demand (Poisson
// 0.08 in, 0.05 out) behind an AdmissionQueue capped at 48, serial and
// on a 4-thread pool.
TEST(PoissonWorkload, AdmittedServiceRoundsKnownAnswer) {
  constexpr std::uint64_t kHash = 0x8d8a202d0616a024ULL;
  const Graph g = make_cycle(NodeId{1} << 14);
  ThreadPool pool(4);
  for (const bool pooled : {false, true}) {
    SendFloor b;
    PoissonWorkload demand({.arrival_rate = 0.08, .departure_rate = 0.05});
    AdmissionQueue queue(demand, {.round_cap = 48});
    queue.reset(g.num_nodes(), 1);
    Engine e(g, EngineConfig{.self_loops = g.degree()}, b,
             LoadVector(static_cast<std::size_t>(g.num_nodes()), 0));
    e.set_workload(&queue);
    if (pooled) e.set_thread_pool(&pool);
    for (Step t = 0; t < 120; ++t) e.step_parallel();
    std::uint64_t h = kFnvBasis;
    for (const Load x : e.loads()) {
      h = fnv_word(h, static_cast<std::uint64_t>(x));
    }
    EXPECT_EQ(h, kHash) << (pooled ? "pooled" : "serial") << std::hex
                        << " hash 0x" << h;
  }
}

TEST(BurstWorkload, OneHotspotPerPeriodAndUniformDrain) {
  const Graph g = make_cycle(32);
  BurstWorkload w({.period = 8, .burst = 100, .drain_period = 2,
                   .drain_amount = 1});
  w.reset(g.num_nodes(), 11);
  LoadVector loads(32, 0);
  for (Step t = 0; t < 32; ++t) {
    w.prepare(t, loads);
    Load burst_mass = 0;
    for (NodeId u = 0; u < 32; ++u) {
      const Load d = w.delta(u, t);
      const Load drain = (t % 2 == 0) ? -1 : 0;
      if (u == w.hotspot()) {
        EXPECT_EQ(d, 100 + drain);
        burst_mass += 100;
      } else {
        EXPECT_EQ(d, drain);
      }
    }
    EXPECT_EQ(burst_mass, t % 8 == 0 ? 100 : 0);
  }
}

TEST(AdversarialInjector, TargetsArgmaxWithLowestIndexTieBreak) {
  const Graph g = make_cycle(8);
  AdversarialInjector w({.amount = 5, .period = 1, .drain_min = true});
  w.reset(g.num_nodes(), 0);
  const LoadVector loads = {3, 9, 9, 1, 1, 4, 0, 0};
  w.prepare(0, loads);
  for (NodeId u = 0; u < 8; ++u) {
    Load expect = 0;
    if (u == 1) expect += 5;  // first argmax
    if (u == 6) expect -= 5;  // first argmin
    EXPECT_EQ(w.delta(u, 0), expect);
  }
}

TEST(AdversarialInjector, FlatVectorStillGetsInjectionWithDrainMin) {
  // argmax == argmin on a flat vector: the drain is skipped so the
  // adversary perturbs the balance instead of cancelling forever.
  const Graph g = make_cycle(4);
  AdversarialInjector w({.amount = 5, .period = 1, .drain_min = true});
  w.reset(g.num_nodes(), 0);
  const LoadVector flat = {6, 6, 6, 6};
  w.prepare(0, flat);
  Load sum = 0;
  for (NodeId u = 0; u < 4; ++u) sum += w.delta(u, 0);
  EXPECT_EQ(sum, 5);
  EXPECT_EQ(w.delta(0, 0), 5);  // inject at the first argmax, no drain
}

TEST(AdversarialInjector, PeriodGatesTheInjection) {
  const Graph g = make_cycle(4);
  AdversarialInjector w({.amount = 5, .period = 3, .drain_min = false});
  w.reset(g.num_nodes(), 0);
  const LoadVector loads = {0, 7, 0, 0};
  for (Step t = 0; t < 6; ++t) {
    w.prepare(t, loads);
    Load sum = 0;
    for (NodeId u = 0; u < 4; ++u) sum += w.delta(u, t);
    EXPECT_EQ(sum, t % 3 == 0 ? 5 : 0);
  }
}

// ------------------------------------------- sparse-injection fast path --

/// Delegating wrapper that hides the inner process's affected-node list,
/// forcing the engine onto the dense all-nodes scan — the reference the
/// sparse fast path must match delta for delta.
class DenseView : public WorkloadProcess {
 public:
  explicit DenseView(WorkloadProcess& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override {
    inner_->reset(n, seed);
  }
  void prepare(Step t, std::span<const Load> loads) override {
    inner_->prepare(t, loads);
  }
  Load delta(NodeId u, Step t) override { return inner_->delta(u, t); }
  bool parallel_generate_safe() const override {
    return inner_->parallel_generate_safe();
  }
  // affected_nodes() deliberately not forwarded: always dense.

 private:
  WorkloadProcess* inner_;
};

TEST(SparseWorkload, BurstListCoversExactlyTheTouchedNodes) {
  BurstWorkload w({.period = 4, .burst = 50, .drain_period = 6,
                   .drain_amount = 1});
  w.reset(32, 11);
  LoadVector loads(32, 3);
  for (Step t = 0; t < 24; ++t) {
    w.prepare(t, loads);
    const std::vector<NodeId>* affected = w.affected_nodes();
    if (t % 6 == 0) {
      // Drain rounds touch every node: the process must declare dense.
      EXPECT_EQ(affected, nullptr) << "t=" << t;
      continue;
    }
    ASSERT_NE(affected, nullptr) << "t=" << t;
    if (t % 4 == 0) {
      ASSERT_EQ(affected->size(), 1u) << "t=" << t;
      EXPECT_EQ((*affected)[0], w.hotspot()) << "t=" << t;
    } else {
      EXPECT_TRUE(affected->empty()) << "t=" << t;
    }
    // Contract: delta == 0 off the list.
    for (NodeId u = 0; u < 32; ++u) {
      const bool listed =
          std::find(affected->begin(), affected->end(), u) != affected->end();
      if (!listed) {
        EXPECT_EQ(w.delta(u, t), 0) << "t=" << t << " u=" << u;
      }
    }
  }
}

TEST(SparseWorkload, AdversaryListHoldsTheRoundTargets) {
  AdversarialInjector w({.amount = 5, .period = 2, .drain_min = true});
  w.reset(8, 0);
  const LoadVector loads = {3, 9, 9, 1, 1, 4, 0, 0};
  w.prepare(0, loads);
  const std::vector<NodeId>* affected = w.affected_nodes();
  ASSERT_NE(affected, nullptr);
  EXPECT_EQ(*affected, (std::vector<NodeId>{1, 6}));  // argmax, argmin
  w.prepare(1, loads);  // off-period round: no targets
  ASSERT_NE(w.affected_nodes(), nullptr);
  EXPECT_TRUE(w.affected_nodes()->empty());
}

TEST(SparseWorkload, FastPathMatchesDenseScanTrajectoryAndLedger) {
  // Burst (with drain, so sparse and dense rounds interleave) and
  // adversary processes on the engine: the sparse fast path must
  // reproduce the dense scan byte for byte — loads, injected/consumed
  // ledgers, and conservation — serially and under a pool.
  const Graph g = make_cycle(32);
  const LoadVector initial = random_initial(g.num_nodes(), 40, 5);
  ThreadPool pool(4);
  const auto make_processes = [] {
    std::vector<std::unique_ptr<WorkloadProcess>> ps;
    ps.push_back(std::make_unique<BurstWorkload>(BurstWorkload::Params{
        .period = 4, .burst = 64, .drain_period = 6, .drain_amount = 1}));
    ps.push_back(std::make_unique<BurstWorkload>(
        BurstWorkload::Params{.period = 3, .burst = 17}));
    ps.push_back(std::make_unique<AdversarialInjector>(
        AdversarialInjector::Params{.amount = 8, .period = 2,
                                    .drain_min = true}));
    return ps;
  };
  for (bool parallel : {false, true}) {
    auto sparse_ps = make_processes();
    auto dense_ps = make_processes();
    for (std::size_t i = 0; i < sparse_ps.size(); ++i) {
      SendFloor sparse_b, dense_b;
      DenseView dense_w(*dense_ps[i]);
      const EngineConfig config{.self_loops = g.degree()};
      Engine sparse_e(g, config, sparse_b, initial);
      Engine dense_e(g, config, dense_b, initial);
      sparse_ps[i]->reset(g.num_nodes(), 21);
      dense_w.reset(g.num_nodes(), 21);
      sparse_e.set_workload(sparse_ps[i].get());
      dense_e.set_workload(&dense_w);
      if (parallel) {
        sparse_e.set_thread_pool(&pool);
        dense_e.set_thread_pool(&pool);
      }
      const auto where = [&] {
        return sparse_ps[i]->name() +
               (parallel ? " (parallel)" : " (serial)");
      };
      for (Step t = 0; t < 60; ++t) {
        sparse_e.step_parallel();
        dense_e.step_parallel();
        ASSERT_EQ(sparse_e.loads(), dense_e.loads())
            << where() << " diverged at step " << t + 1;
        ASSERT_EQ(sparse_e.injected_total(), dense_e.injected_total())
            << where() << " at step " << t + 1;
        ASSERT_EQ(sparse_e.consumed_total(), dense_e.consumed_total())
            << where() << " at step " << t + 1;
      }
    }
  }
}

// ------------------------------------------------------- block fill() --

/// Restores the process-wide SIMD switch on scope exit.
class SimdSwitch {
 public:
  SimdSwitch() : was_(simd::enabled()) {}
  ~SimdSwitch() { simd::set_enabled(was_); }

 private:
  bool was_;
};

/// Node ranges [first, last) whose ends sit at every offset mod 8 (the
/// AVX-512 Poisson path's vector width, a multiple of AVX2's) around the
/// start, the end and an interior point of [0, n), plus prime-sized
/// ranges.
std::vector<std::pair<NodeId, NodeId>> fill_ranges(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const NodeId anchor : {NodeId{0}, n / 2, n - 16}) {
    for (NodeId a = 0; a < 8; ++a) {
      for (NodeId len = 0; len < 24; ++len) {
        const NodeId first = anchor + a;
        if (first + len <= n) out.emplace_back(first, first + len);
      }
    }
  }
  for (const NodeId first : {NodeId{0}, NodeId{3}, NodeId{29}}) {
    for (const NodeId len : {NodeId{31}, NodeId{127}, NodeId{257},
                             NodeId{1021}}) {
      if (first + len <= n) out.emplace_back(first, first + len);
    }
  }
  out.emplace_back(0, n);
  return out;
}

/// Over `rounds` rounds of `w` (prepared over loads of size n), every
/// fill() range equals the delta() values of its nodes — with the vector
/// paths on (AVX-512 where the CPU has it, else AVX2) and with them off.
void expect_fill_equals_delta(WorkloadProcess& w, NodeId n, Step rounds,
                              const std::string& what) {
  const LoadVector loads = random_initial(n, 50, 3);
  const auto ranges = fill_ranges(n);
  const SimdSwitch restore;
  for (Step t = 0; t < rounds; ++t) {
    w.prepare(t, loads);
    std::vector<Load> want(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
      want[static_cast<std::size_t>(u)] = w.delta(u, t);
    }
    for (const bool vector_path : {false, true}) {
      simd::set_enabled(vector_path);
      for (const auto& [first, last] : ranges) {
        std::vector<Load> got(static_cast<std::size_t>(last - first), -77);
        w.fill(t, first, got);
        for (NodeId u = first; u < last; ++u) {
          ASSERT_EQ(got[static_cast<std::size_t>(u - first)],
                    want[static_cast<std::size_t>(u)])
              << what << " t=" << t << " u=" << u << " range [" << first
              << ", " << last << ")" << (vector_path ? " simd" : " scalar");
        }
      }
    }
  }
}

// Each Poisson zero-test kernel, called directly on every range of
// fill_ranges(): the service demand (most vectors all fast), the
// defaults, rates where every lane is slow and a draw reads up to ~60
// uniforms, and the product regime's upper seam.
using PoissonKernel = void (*)(const poisson_fill::RoundKeys&,
                               const poisson_fill::ZeroTest&, std::uint64_t,
                               std::span<Load>);

const std::vector<std::pair<double, double>> kKernelRates = {
    {0.08, 0.05}, {0.05, 0.08}, {0.5, 0.5},  {5.0, 3.0},
    {40.0, 0.05}, {0.05, 40.0}, {64.0, 64.0}};
constexpr NodeId kKernelNodes = 1500;
constexpr std::uint64_t kKernelSeed = 17;

void expect_kernel_equals_delta(PoissonKernel kernel, const char* path) {
  const auto ranges = fill_ranges(kKernelNodes);
  for (const auto& [in, out] : kKernelRates) {
    PoissonWorkload w({.arrival_rate = in, .departure_rate = out});
    w.reset(kKernelNodes, kKernelSeed);
    const poisson_fill::ZeroTest z(PoissonSampler(in).limit(),
                                   PoissonSampler(out).limit());
    for (Step t = 0; t < 3; ++t) {
      const poisson_fill::RoundKeys keys(kKernelSeed, t);
      for (const auto& [first, last] : ranges) {
        std::vector<Load> got(static_cast<std::size_t>(last - first), -77);
        kernel(keys, z, static_cast<std::uint64_t>(first), got);
        for (NodeId u = first; u < last; ++u) {
          ASSERT_EQ(got[static_cast<std::size_t>(u - first)], w.delta(u, t))
              << path << " " << w.name() << " t=" << t << " u=" << u
              << " range [" << first << ", " << last << ")";
        }
      }
    }
  }
}

TEST(PoissonFillKernels, RatesGiveVectorsWithNoAndOnlySlowLanes) {
  // A node is slow (runs the full draw) unless both its draws are 0 from
  // one uniform each. Over the kernel rates, some vector of eight nodes
  // must be all fast and some all slow, so both ends of the compress and
  // of the slow-lane finish are exercised.
  bool all_fast = false;
  bool all_slow = false;
  for (const auto& [in, out] : kKernelRates) {
    const PoissonSampler arrivals(in);
    const PoissonSampler departures(out);
    for (NodeId v = 0; v + 8 <= kKernelNodes; v += 8) {
      int slow = 0;
      for (NodeId u = v; u < v + 8; ++u) {
        Rng rng(stream_key(kKernelSeed, static_cast<std::uint64_t>(u), 0));
        const Load a = arrivals(rng);
        slow += a != 0 || departures(rng) != 0;
      }
      all_fast |= slow == 0;
      all_slow |= slow == 8;
    }
  }
  EXPECT_TRUE(all_fast);
  EXPECT_TRUE(all_slow);
}

TEST(PoissonFillKernels, ScalarMatchesDelta) {
  expect_kernel_equals_delta(poisson_fill::scalar, "scalar");
}

TEST(PoissonFillKernels, Avx2MatchesDelta) {
  const SimdSwitch restore;
  simd::set_enabled(true);
  if (!simd::enabled()) GTEST_SKIP() << "no AVX2 build or AVX2 CPU";
  expect_kernel_equals_delta(poisson_fill::avx2, "avx2");
}

TEST(PoissonFillKernels, Avx512MatchesDelta) {
  const SimdSwitch restore;
  simd::set_enabled(true);
  if (!simd::avx512()) {
    GTEST_SKIP() << "the CPU lacks AVX-512F/DQ (or this is no AVX2 build)";
  }
  expect_kernel_equals_delta(poisson_fill::avx512, "avx512");
}

TEST(WorkloadFill, CounterMatchesDeltaIncludingZeroPeriods) {
  const std::vector<CounterWorkload::Params> cases = {
      {.arrival_period = 4, .arrival_amount = 3, .departure_period = 4,
       .departure_amount = 2},
      {.arrival_period = 3, .arrival_amount = 2, .departure_period = 7,
       .departure_amount = 1},
      {.arrival_period = 1, .arrival_amount = 1, .departure_period = 1,
       .departure_amount = 1},
      {.arrival_period = 0, .arrival_amount = 5, .departure_period = 3,
       .departure_amount = 2},
      {.arrival_period = 5, .arrival_amount = 2, .departure_period = 0,
       .departure_amount = 4},
      {.arrival_period = 0, .arrival_amount = 1, .departure_period = 0,
       .departure_amount = 1},
  };
  for (const auto& p : cases) {
    CounterWorkload w(p);
    w.reset(1500, 1);
    expect_fill_equals_delta(w, 1500, 9, w.name());
  }
}

TEST(WorkloadFill, PoissonMatchesDeltaAtEveryRegime) {
  // λ = 0 on either side (no uniform drawn there, so the zero test must
  // stay off), the product regime on both sides (the zero test, scalar
  // and vector), its upper seam, the split regime and the normal regime.
  const std::vector<std::pair<double, double>> rates = {
      {0.0, 0.0},   {0.0, 0.5},   {0.5, 0.0},    {0.05, 0.08},
      {0.08, 0.05}, {0.5, 0.5},   {64.0, 0.05},  {0.08, 64.0},
      {64.5, 0.5},  {0.5, 64.5},  {4096.5, 0.08}, {0.05, 4096.5}};
  for (const auto& [in, out] : rates) {
    PoissonWorkload w({.arrival_rate = in, .departure_rate = out});
    w.reset(1500, 17);
    expect_fill_equals_delta(w, 1500, 3, w.name());
  }
}

TEST(WorkloadFill, BurstMatchesDeltaOnDenseAndSparseRounds) {
  // Drain every 3rd round (dense), a burst every 2nd (sparse otherwise),
  // and a burst-only process whose rounds are all sparse.
  BurstWorkload drained({.period = 2, .burst = 40, .drain_period = 3,
                         .drain_amount = 2});
  drained.reset(1500, 9);
  expect_fill_equals_delta(drained, 1500, 12, drained.name());
  BurstWorkload bursts({.period = 1, .burst = 7});
  bursts.reset(1500, 4);
  expect_fill_equals_delta(bursts, 1500, 6, bursts.name());
}

TEST(WorkloadFill, AdversaryAndAdmissionQueueMatchDelta) {
  AdversarialInjector adversary({.amount = 5, .period = 2, .drain_min = true});
  adversary.reset(1500, 0);
  expect_fill_equals_delta(adversary, 1500, 6, adversary.name());

  // Dense rounds (Poisson demand behind the cap) and sparse ones (bursts).
  PoissonWorkload demand({.arrival_rate = 0.4, .departure_rate = 0.3});
  AdmissionQueue dense(demand, {.round_cap = 48});
  dense.reset(1500, 2);
  expect_fill_equals_delta(dense, 1500, 6, dense.name());
  BurstWorkload bursts({.period = 2, .burst = 30, .drain_period = 3,
                        .drain_amount = 1});
  AdmissionQueue mixed(bursts, {.round_cap = 8});
  mixed.reset(1500, 5);
  expect_fill_equals_delta(mixed, 1500, 9, mixed.name());
}

/// Forwarding wrapper that overrides delta() but not fill(), the way
/// timing or tracing wrappers are written: dense rounds then run the
/// default fill(), a loop over the forwarded delta().
class DeltaOnlyWrapper : public WorkloadProcess {
 public:
  explicit DeltaOnlyWrapper(WorkloadProcess& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override { inner_->reset(n, seed); }
  void prepare(Step t, std::span<const Load> loads) override {
    inner_->prepare(t, loads);
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

 private:
  WorkloadProcess* inner_;
};

TEST(WorkloadFill, DeltaOnlyWrapperRunsIdenticallyOnEveryEngine) {
  // The default fill() must make a delta()-only wrapper indistinguishable
  // from the process it wraps: same trajectory and ledger on the flat
  // serial, flat pooled and sharded (k = 1, 4) engines.
  const Graph g = make_cycle(203);
  const LoadVector initial = random_initial(g.num_nodes(), 30, 8);
  ThreadPool pool(4);
  const auto make_processes = [] {
    std::vector<std::unique_ptr<WorkloadProcess>> ps;
    ps.push_back(std::make_unique<PoissonWorkload>(
        PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5}));
    ps.push_back(std::make_unique<CounterWorkload>(CounterWorkload::Params{
        .arrival_period = 3, .arrival_amount = 2, .departure_period = 4,
        .departure_amount = 1}));
    ps.push_back(std::make_unique<BurstWorkload>(BurstWorkload::Params{
        .period = 4, .burst = 64, .drain_period = 3, .drain_amount = 1}));
    return ps;
  };
  struct Run {
    LoadVector loads;
    Load injected;
    Load consumed;
  };
  // shards == 0 runs the flat engine (pooled or serial), otherwise the
  // sharded engine with that many shards on the pool.
  const auto run = [&](WorkloadProcess& w, int shards, bool pooled) {
    SendFloor b;
    w.reset(g.num_nodes(), 31);
    constexpr Step kRounds = 40;
    if (shards == 0) {
      Engine e(g, EngineConfig{.self_loops = g.degree()}, b, initial);
      e.set_workload(&w);
      if (pooled) e.set_thread_pool(&pool);
      for (Step t = 0; t < kRounds; ++t) e.step_parallel();
      return Run{e.loads(), e.injected_total(), e.consumed_total()};
    }
    ShardedEngine e(g, ShardedEngineConfig{.self_loops = g.degree()}, b,
                    initial, shards);
    e.set_workload(&w);
    e.set_thread_pool(&pool);
    for (Step t = 0; t < kRounds; ++t) e.step();
    return Run{e.gather_loads(), e.injected_total(), e.consumed_total()};
  };
  const struct {
    const char* name;
    int shards;
    bool pooled;
  } engines[] = {{"flat serial", 0, false},
                 {"flat pooled", 0, true},
                 {"sharded k=1", 1, true},
                 {"sharded k=4", 4, true}};
  for (const auto& engine : engines) {
    auto plain = make_processes();
    auto inner = make_processes();
    for (std::size_t i = 0; i < plain.size(); ++i) {
      DeltaOnlyWrapper wrapped(*inner[i]);
      const Run a = run(*plain[i], engine.shards, engine.pooled);
      const Run b = run(wrapped, engine.shards, engine.pooled);
      const std::string where = plain[i]->name() + " on " + engine.name;
      EXPECT_EQ(a.loads, b.loads) << where;
      EXPECT_EQ(a.injected, b.injected) << where;
      EXPECT_EQ(a.consumed, b.consumed) << where;
    }
  }
}

// --------------------------------------------------- engine integration --

TEST(DynamicEngine, ConservationIdentityHoldsEveryRound) {
  const Graph g = make_cycle(48);
  SendFloor balancer;
  PoissonWorkload churn({.arrival_rate = 0.8, .departure_rate = 0.8});
  churn.reset(g.num_nodes(), 3);
  Engine engine(g, EngineConfig{.self_loops = 2}, balancer,
                bimodal_initial(48, 20));
  engine.set_workload(&churn);
  const Load base = engine.base_total();
  EXPECT_EQ(base, 20 * 24);
  for (Step t = 0; t < 300; ++t) {
    engine.step();  // the engine audits Σx every round
    EXPECT_EQ(engine.total(),
              base + engine.injected_total() - engine.consumed_total());
    EXPECT_EQ(total_load(engine.loads()), engine.total());
  }
  EXPECT_GT(engine.injected_total(), 0);
  EXPECT_GT(engine.consumed_total(), 0);
}

TEST(DynamicEngine, ConsumptionTruncatesAtZeroLoad) {
  const Graph g = make_cycle(16);
  SendFloor balancer;
  // Departure-heavy churn on a nearly-empty system: requests far exceed
  // the available tokens, so realized consumption must be truncated and
  // no load may ever go negative.
  CounterWorkload churn({.arrival_period = 8,
                         .arrival_amount = 1,
                         .departure_period = 1,
                         .departure_amount = 100});
  churn.reset(g.num_nodes(), 0);
  Engine engine(g, EngineConfig{.self_loops = 2}, balancer,
                bimodal_initial(16, 4));
  engine.set_workload(&churn);
  for (Step t = 0; t < 50; ++t) engine.step();
  EXPECT_GE(engine.min_load_seen(), 0);
  // 16 nodes × 50 rounds × 100 requested ≫ what was ever available.
  EXPECT_LT(engine.consumed_total(), 16 * 50 * 100);
  EXPECT_EQ(engine.total(), engine.base_total() + engine.injected_total() -
                                engine.consumed_total());
}

TEST(DynamicEngine, WorkloadHookWorksOnTheIrregularSubstrate) {
  // Irregular graphs have no regular Graph object, which is why reset()
  // takes a node count; conservation and parallel determinism must hold
  // there too.
  const IrregularGraph g = make_wheel(12);
  CounterWorkload serial_churn({.arrival_period = 3,
                                .arrival_amount = 2,
                                .departure_period = 5,
                                .departure_amount = 1});
  serial_churn.reset(g.num_nodes(), 0);
  IrregularEngine serial(g, IrregularPolicy::kRotorRouter,
                         /*uniform_d_plus=*/0,
                         LoadVector(static_cast<std::size_t>(g.num_nodes()),
                                    10));
  serial.set_workload(&serial_churn);

  ThreadPool pool(4);
  CounterWorkload par_churn = serial_churn;
  par_churn.reset(g.num_nodes(), 0);
  IrregularEngine parallel(g, IrregularPolicy::kRotorRouter, 0,
                           LoadVector(static_cast<std::size_t>(g.num_nodes()),
                                      10));
  parallel.set_workload(&par_churn);
  parallel.set_thread_pool(&pool);

  for (Step t = 0; t < 120; ++t) {
    serial.step();
    parallel.step_parallel();
    ASSERT_EQ(serial.loads(), parallel.loads()) << "step " << t + 1;
  }
  EXPECT_GT(serial.injected_total(), 0);
  EXPECT_GT(serial.consumed_total(), 0);
  EXPECT_EQ(total_load(serial.loads()),
            serial.base_total() + serial.injected_total() -
                serial.consumed_total());
}

TEST(DynamicEngine, WorkloadHookWorksOnTheMatchingSubstrate) {
  // The hook lives in RoundEngineBase, so dimension exchange gets
  // dynamics for free — including the extended audit.
  const Graph g = make_hypercube(4);
  CounterWorkload churn({.arrival_period = 3,
                         .arrival_amount = 2,
                         .departure_period = 5,
                         .departure_amount = 1});
  churn.reset(g.num_nodes(), 0);
  DimensionExchange engine(g, DePolicy::kAverageDown, /*seed=*/1,
                           bimodal_initial(16, 12));
  engine.set_workload(&churn);
  for (Step t = 0; t < 100; ++t) engine.step();
  EXPECT_GT(engine.injected_total(), 0);
  EXPECT_EQ(total_load(engine.loads()),
            engine.base_total() + engine.injected_total() -
                engine.consumed_total());
}

// Workload factory per golden case, so each engine owns fresh state.
std::vector<std::pair<std::string,
                      std::function<std::unique_ptr<WorkloadProcess>()>>>
golden_workloads() {
  return {
      {"counter",
       [] {
         return std::make_unique<CounterWorkload>(CounterWorkload::Params{
             .arrival_period = 3,
             .arrival_amount = 2,
             .departure_period = 4,
             .departure_amount = 1});
       }},
      {"poisson",
       [] {
         return std::make_unique<PoissonWorkload>(
             PoissonWorkload::Params{.arrival_rate = 0.6,
                                     .departure_rate = 0.6});
       }},
      {"burst",
       [] {
         return std::make_unique<BurstWorkload>(BurstWorkload::Params{
             .period = 7, .burst = 64, .drain_period = 2,
             .drain_amount = 1});
       }},
      {"adversary",
       [] {
         return std::make_unique<AdversarialInjector>(
             AdversarialInjector::Params{.amount = 6,
                                         .period = 2,
                                         .drain_min = true});
       }},
  };
}

TEST(DynamicEngine, GoldenSerialEqualsParallelAtThreads_1_2_8) {
  // The acceptance gate: dynamic rounds (injection + decide + apply) are
  // byte-identical at thread counts {1, 2, 8}, for a parallel-decide-safe
  // balancer and for one that forces the serial decide path (RAND-EXTRA's
  // sequential RNG stream).
  const Graph g = make_torus2d(8, 6);
  for (Algorithm algo :
       {Algorithm::kSendFloor, Algorithm::kRandomizedExtra}) {
    for (const auto& [wl_name, wl_make] : golden_workloads()) {
      const std::string where =
          algorithm_name(algo) + " under " + wl_name;
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        auto par_b = make_balancer(algo, /*seed=*/7);
        auto par_w = wl_make();
        par_w->reset(g.num_nodes(), 13);
        Engine parallel(g, EngineConfig{.self_loops = 4}, *par_b,
                        bimodal_initial(48, 30));
        parallel.set_workload(par_w.get());
        parallel.set_thread_pool(&pool);

        auto serial_replay_b = make_balancer(algo, /*seed=*/7);
        auto serial_replay_w = wl_make();
        serial_replay_w->reset(g.num_nodes(), 13);
        Engine replay(g, EngineConfig{.self_loops = 4}, *serial_replay_b,
                      bimodal_initial(48, 30));
        replay.set_workload(serial_replay_w.get());

        for (Step t = 0; t < 80; ++t) {
          replay.step();
          parallel.step_parallel();
          ASSERT_EQ(replay.loads(), parallel.loads())
              << where << " diverged at step " << t + 1 << " with "
              << threads << " threads";
        }
        EXPECT_EQ(replay.injected_total(), parallel.injected_total()) << where;
        EXPECT_EQ(replay.consumed_total(), parallel.consumed_total()) << where;
      }
    }
  }
}

// -------------------------------------------------------- steady stats --

TEST(SteadyStateTracker, InactiveWhenWindowZero) {
  SteadyStateTracker tracker(SteadyOptions{});
  EXPECT_FALSE(tracker.active());
  tracker.observe(1, 100);
  const SteadySummary s = tracker.summary();
  EXPECT_FALSE(s.tracked);
  EXPECT_EQ(s.rounds, 0);
}

TEST(SteadyStateTracker, ConstantSeriesSteadiesWhenWindowFills) {
  SteadyStateTracker tracker(SteadyOptions{.window = 10, .warmup = 0});
  for (Step t = 1; t <= 20; ++t) tracker.observe(t, 7);
  const SteadySummary s = tracker.summary();
  EXPECT_TRUE(s.tracked);
  EXPECT_EQ(s.rounds, 20);
  EXPECT_EQ(s.t_steady, 10);  // first round with a full, flat window
  EXPECT_DOUBLE_EQ(s.window_mean, 7.0);
  EXPECT_EQ(s.window_max, 7);
  EXPECT_EQ(s.window_p99, 7);
}

TEST(SteadyStateTracker, WarmupDelaysDetection) {
  SteadyStateTracker tracker(SteadyOptions{.window = 5, .warmup = 12});
  for (Step t = 1; t <= 20; ++t) tracker.observe(t, 3);
  EXPECT_EQ(tracker.t_steady(), 13);  // first post-warm-up full window
}

TEST(SteadyStateTracker, DivergingSeriesNeverSteadies) {
  SteadyStateTracker tracker(
      SteadyOptions{.window = 8, .warmup = 0, .rel_band = 0.05,
                    .abs_band = 1});
  for (Step t = 1; t <= 100; ++t) {
    tracker.observe(t, 10 * t);  // window band always ≫ tolerance
  }
  EXPECT_EQ(tracker.t_steady(), -1);
  EXPECT_EQ(tracker.summary().t_steady, -1);
}

TEST(SteadyStateTracker, WindowStatsCoverTheTrailingWindowOnly) {
  SteadyStateTracker tracker(SteadyOptions{.window = 4});
  // Large early values must fall out of the window.
  for (Load v : {1000, 1000, 1000, 1000, 1, 2, 3, 4}) {
    tracker.observe(tracker.summary().rounds + 1, v);
  }
  const SteadySummary s = tracker.summary();
  EXPECT_DOUBLE_EQ(s.window_mean, 2.5);
  EXPECT_EQ(s.window_max, 4);
  EXPECT_EQ(s.window_p99, 4);
}

TEST(SteadyStateTracker, PartialWindowUsesWhatWasObserved) {
  SteadyStateTracker tracker(SteadyOptions{.window = 100});
  tracker.observe(1, 10);
  tracker.observe(2, 20);
  const SteadySummary s = tracker.summary();
  EXPECT_EQ(s.rounds, 2);
  EXPECT_DOUBLE_EQ(s.window_mean, 15.0);
  EXPECT_EQ(s.window_max, 20);
}

// --------------------------------------------------- experiment driver --

TEST(DynamicExperiment, RecordsWorkloadLedgerAndSteadySummary) {
  const Graph g = make_hypercube(5);
  auto balancer = make_balancer(Algorithm::kSendFloor);
  PoissonWorkload churn({.arrival_rate = 0.5, .departure_rate = 0.5});
  ExperimentSpec spec;
  spec.self_loops = 5;
  spec.fixed_horizon = 400;
  spec.workload = &churn;
  spec.steady = SteadyOptions{.window = 50, .warmup = 100};
  spec.audit_fairness = false;
  spec.seed = 21;
  const double mu = 1.0 - lambda2_hypercube(5, 5);
  const auto r = run_experiment(g, *balancer, bimodal_initial(32, 64), mu,
                                spec);
  EXPECT_TRUE(r.dynamic);
  EXPECT_EQ(r.workload, "poisson(in=0.5,out=0.5)");
  EXPECT_GT(r.injected_total, 0);
  EXPECT_GT(r.consumed_total, 0);
  EXPECT_TRUE(r.steady.tracked);
  EXPECT_EQ(r.steady.rounds, 400);
  EXPECT_GT(r.steady.window_mean, 0.0);
  EXPECT_GE(r.steady.window_max, r.steady.window_p99);
  // Dynamic runs skip the continuous yardstick: it has no churn model.
  EXPECT_TRUE(std::isnan(r.continuous_final_discrepancy));
}

TEST(DynamicExperiment, StaticRunsAreUntouched) {
  const Graph g = make_hypercube(4);
  SendFloor b;
  ExperimentSpec spec;
  spec.self_loops = 4;
  const double mu = 1.0 - lambda2_hypercube(4, 4);
  const auto r = run_experiment(g, b, bimodal_initial(16, 64), mu, spec);
  EXPECT_FALSE(r.dynamic);
  EXPECT_EQ(r.workload, "static");
  EXPECT_EQ(r.injected_total, 0);
  EXPECT_EQ(r.consumed_total, 0);
  EXPECT_FALSE(r.steady.tracked);
}

// --------------------------------------------------- sweep integration --

SweepMatrix dynamic_matrix() {
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(24), 1.0 - lambda2_cycle(24, 2));
  m.add_graph("torus", make_torus2d(4, 4), 1.0 - lambda2_torus({4, 4}, 4));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_balancer(Algorithm::kRandomizedExtra);  // serial-decide path
  m.add_shape(InitialShape::kBimodal);
  m.add_workload(static_workload());
  m.add_workload({"poisson(in=0.5,out=0.5)", [](std::uint64_t) {
                    return std::make_unique<PoissonWorkload>(
                        PoissonWorkload::Params{0.5, 0.5});
                  }});
  m.add_workload({"adversary(4/1)", [](std::uint64_t) {
                    return std::make_unique<AdversarialInjector>(
                        AdversarialInjector::Params{.amount = 4,
                                                    .period = 1});
                  }});
  m.add_load_scale(32);
  m.add_seed(1).add_seed(2);
  return m;
}

SweepOptions dynamic_options(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.base.fixed_horizon = 60;
  o.base.run_continuous = false;
  o.base.audit_fairness = false;
  o.base.steady = SteadyOptions{.window = 16, .warmup = 20};
  return o;
}

TEST(DynamicSweep, WorkloadAxisMultipliesTheCrossProduct) {
  const SweepMatrix m = dynamic_matrix();
  EXPECT_EQ(m.workloads().size(), 3u);
  EXPECT_EQ(m.size(), 2u * 2u * 1u * 3u * 1u * 1u * 2u);
  // Default axis (no add_workload): exactly one static entry.
  SweepMatrix plain;
  EXPECT_EQ(plain.workloads().size(), 1u);
  EXPECT_EQ(plain.workloads()[0].name, "static");
  EXPECT_EQ(plain.workloads()[0].make, nullptr);
}

TEST(DynamicSweep, RejectsWorkloadOnTheBaseSpec) {
  // A process on the base spec would be one mutable instance shared by
  // concurrent workers; the runner must refuse instead of racing (or
  // silently replacing it with the axis entry).
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(8), 1.0 - lambda2_cycle(8, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_shape(InitialShape::kBimodal);
  m.add_load_scale(8);
  PoissonWorkload churn({.arrival_rate = 0.1, .departure_rate = 0.1});
  SweepOptions o = dynamic_options(1);
  o.base.workload = &churn;
  EXPECT_THROW(SweepRunner(o).run(m), invariant_error);
}

TEST(DynamicSweep, EightThreadsMatchSequentialByteForByte) {
  const SweepMatrix m = dynamic_matrix();
  const auto sequential = SweepRunner(dynamic_options(1)).run(m);
  const auto parallel = SweepRunner(dynamic_options(8)).run(m);
  ASSERT_EQ(sequential.size(), parallel.size());
  EXPECT_EQ(SweepRunner::csv_string(sequential),
            SweepRunner::csv_string(parallel));
}

TEST(DynamicSweep, InnerNestingMatchesOuterByteForByte) {
  // On a 2^15-node cycle, 8 threads nest round-parallel dynamic engines:
  // inner for one scenario, hybrid (3 outer workers × 2-wide pools) for
  // three. Both must match the serial run byte for byte.
  constexpr NodeId kN = 1 << 15;
  SweepMatrix m;
  m.add_graph("cycle", make_cycle(kN), 1.0 - lambda2_cycle(kN, 2));
  m.add_balancer(Algorithm::kSendFloor);
  m.add_balancer(Algorithm::kRandomizedExtra);  // serial-decide path
  m.add_shape(InitialShape::kBimodal);
  m.add_workload({"poisson(in=0.5,out=0.5)", [](std::uint64_t) {
                    return std::make_unique<PoissonWorkload>(
                        PoissonWorkload::Params{0.5, 0.5});
                  }});
  m.add_workload({"adversary(4/1)", [](std::uint64_t) {
                    return std::make_unique<AdversarialInjector>(
                        AdversarialInjector::Params{.amount = 4,
                                                    .period = 1});
                  }});
  m.add_load_scale(32);
  const std::vector<Scenario> all = m.scenarios();
  for (const std::size_t count : {1, 3}) {
    SCOPED_TRACE(std::to_string(count) + " scenarios");
    const std::vector<Scenario> subset(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
    SweepOptions serial = dynamic_options(1);
    SweepOptions nested = dynamic_options(8);
    serial.base.fixed_horizon = nested.base.fixed_horizon = 24;
    EXPECT_EQ(SweepRunner::csv_string(SweepRunner(serial).run(m, subset)),
              SweepRunner::csv_string(SweepRunner(nested).run(m, subset)));
  }
}

TEST(DynamicSweep, CsvCarriesWorkloadColumnsAndQuotesCommaNames) {
  const SweepMatrix m = dynamic_matrix();
  const auto rows = SweepRunner(dynamic_options(4)).run(m);
  const std::string csv = SweepRunner::csv_string(rows);
  // The workload axis label contains commas, so the CSV layer must quote
  // it (RFC 4180) — the hardened writer's end-to-end gate.
  EXPECT_NE(csv.find("\"poisson(in=0.5,out=0.5)\""), std::string::npos);
  EXPECT_NE(csv.find(",workload,"), std::string::npos);
  EXPECT_NE(csv.find(",steady_mean,"), std::string::npos);
  // Static rows keep the steady columns blank but the ledger at zero.
  bool saw_static = false;
  for (const SweepRow& row : rows) {
    if (row.workload != "static") continue;
    saw_static = true;
    EXPECT_EQ(row.result.injected_total, 0);
    EXPECT_EQ(row.result.consumed_total, 0);
  }
  EXPECT_TRUE(saw_static);
  // Dynamic rows with churn have a non-trivial ledger.
  bool saw_dynamic = false;
  for (const SweepRow& row : rows) {
    if (row.workload.rfind("poisson", 0) != 0) continue;
    saw_dynamic = true;
    EXPECT_GT(row.result.injected_total, 0);
    EXPECT_TRUE(row.result.steady.tracked);
  }
  EXPECT_TRUE(saw_dynamic);
}

}  // namespace
}  // namespace dlb
