// Online-workload processes: load churn applied between balancing rounds.
//
// The paper analyzes every scheme from a fixed initial load to
// convergence; production diffusion balancers face *churning* demand —
// tokens arrive and complete while the protocol runs. A WorkloadProcess
// perturbs the load vector before every round: positive per-node deltas
// inject tokens, negative deltas request consumption (the engine
// truncates consumption at zero load so churn never drives a node
// negative on its own). The engine's conservation audit then tracks the
// dynamic invariant
//
//     Σx  ==  Σx₀ + injected − consumed     after every round,
//
// so a buggy generator or engine still fails loudly.
//
// Determinism contract (mirrors the decide/apply split): per-node deltas
// are drawn from counter-based streams keyed on (seed, node, round) —
// never from a shared sequential RNG — so disjoint node ranges may be
// generated concurrently and a parallel round is byte-identical to a
// serial one at any thread count. Processes that need global round state
// (the adversarial injector's argmax scan, the burst hotspot pick)
// compute it in the serial prepare() hook, exactly like
// Balancer::prepare_round.
//
// An engine hands each round to the process in two calls: prepare_round()
// with the pre-injection loads, then, on a dense round, apply_dense() with
// the engine-wide load span, which applies every node's delta by
// WorkloadTally::apply. The default apply_dense() reads the deltas a block
// at a time through fill(t, first, out), one virtual call per block, and
// the built-in processes generate a block in an inlined loop (the Poisson
// draw eight nodes per AVX-512 vector, or four per AVX2 vector), so
// producing a round's arrivals costs about what balancing it does. A
// process whose deltas depend on per-node bookkeeping (the admission
// queue) overrides the pair and applies its round in one pass.
// delta(u, t) is the point query — sparse lists, overflow replays, tests —
// and the default fill() loops over it, so a process (or a forwarding
// wrapper) that overrides only prepare() and delta() stays correct.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/load_vector.hpp"
#include "graph/graph.hpp"  // NodeId
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace dlb {

class ThreadPool;

/// Multipliers stream_key folds the node and the round in with.
inline constexpr std::uint64_t kStreamNodeMul = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kStreamRoundMul = 0xbf58476d1ce4e5b9ULL;

/// Counter-based per-(node, round) stream key: three SplitMix64 rounds
/// over (seed, node, round). Workload generators seed a throwaway Rng
/// from this instead of sharing one sequential stream, so any node's
/// draw is independent of evaluation order — the property that makes
/// parallel injection byte-deterministic.
inline std::uint64_t stream_key(std::uint64_t seed, std::uint64_t node,
                                std::uint64_t round) noexcept {
  std::uint64_t s = seed;
  std::uint64_t h = splitmix64(s);
  s ^= node * kStreamNodeMul;
  h ^= splitmix64(s);
  s ^= round * kStreamRoundMul;
  h ^= splitmix64(s);
  return h;
}

/// Poisson(λ) draw, deterministic for a given Rng stream and libm.
///
/// Three regimes, chosen by rate (the seams are fixed constants, so the
/// branch a draw takes is itself deterministic):
///   * λ <= 64 — Knuth's exact product-of-uniforms method, O(λ) uniforms
///     (the classic small-rate arrival case; the exp(−λ) threshold is
///     the one libm-rounded quantity).
///   * 64 < λ <= 4096 — exact additive split: Poisson(λ) is the sum of
///     ⌈λ/64⌉ independent Poisson(λ/⌈λ/64⌉) draws, each inside the
///     product method's range. Still the exact distribution, still O(λ).
///   * λ > 4096 — deterministic normal approximation: one uniform
///     through the Acklam inverse-CDF gives z, and the draw is
///     max(0, round(λ + √λ·z)) — O(1), relative error O(1/√λ), which at
///     λ > 4096 is below 2% of a standard deviation. High-traffic
///     service scenarios land here; they previously aborted outright.
/// Rejects λ > 1e15 (the draw would overflow the Load ledger).
Load poisson_draw(Rng& rng, double lambda);

/// Regime seams of poisson_draw, exposed so tests can probe both edges.
inline constexpr double kPoissonProductCap = 64.0;
inline constexpr double kPoissonSplitCap = 4096.0;

/// poisson_draw with its per-rate constants (the exp(−λ) threshold, the
/// split regime's chunk count and per-chunk threshold, √λ) computed once
/// at construction instead of on every draw. Draws are bit-identical to
/// poisson_draw(rng, λ), which is this sampler built on the spot.
class PoissonSampler {
 public:
  /// Same rate checks as poisson_draw.
  explicit PoissonSampler(double lambda);

  Load operator()(Rng& rng) const;

  /// True when a draw is one product-method run with λ > 0: it then
  /// returns 0 exactly when its first uniform is <= limit().
  bool single_product() const noexcept { return chunks_ == 1; }
  /// The product threshold exp(−λ) (per chunk when split).
  double limit() const noexcept { return limit_; }

 private:
  double lambda_;
  double sqrt_lambda_ = 0.0;  ///< normal regime
  double limit_ = 0.0;        ///< product threshold (per chunk when split)
  int chunks_ = 0;            ///< product draws per sample (0 = normal)
};

class WorkloadProcess;

/// One chunk's workload churn (a pool range, an admission block, or a
/// sparse list), folded into the engine's ledger by
/// RoundLedger::apply_workload.
struct WorkloadTally {
  Load injected = 0;
  Load consumed = 0;
  bool ledger_overflow = false;  ///< a partial sum left int64
  NodeId overflow_node = -1;     ///< first node whose load left int64

  /// The delta rule: d > 0 injects; d < 0 consumes, truncated at zero, so
  /// churn never drives a node negative on its own (a node at or below
  /// zero gives nothing). Returns the change made to x. A load that would
  /// leave int64 is left untouched and u is recorded; the caller stops its
  /// chunk there, so each chunk reports its first such node.
  Load apply(NodeId u, Load& x, Load d) noexcept {
    if (d > 0) {
      Load next;
      if (__builtin_add_overflow(x, d, &next)) {
        overflow_node = u;
        return 0;
      }
      x = next;
      ledger_overflow |= __builtin_add_overflow(injected, d, &injected);
      return d;
    }
    if (d >= 0 || x <= 0) return 0;
    const Load take = d < -x ? x : -d;
    x -= take;
    ledger_overflow |= __builtin_add_overflow(consumed, take, &consumed);
    return -take;
  }

  /// Applies round t's deltas of `w` to the loads `x` of nodes first,
  /// first + 1, …: fetched through WorkloadProcess::fill in fixed stack
  /// chunks, then apply()'d in node order, stopping at the first node
  /// whose load would leave int64. The body of the default apply_dense().
  void apply_filled(WorkloadProcess& w, Step t, NodeId first,
                    std::span<Load> x);

  /// Folds another chunk in. Partials are sums of non-negative terms, so
  /// one overflows iff the whole round's does, and the lowest overflowing
  /// node wins: the outcome is the same at any chunking.
  void merge(const WorkloadTally& o) noexcept;
};

/// Per-round load perturbation source. Attach to any round engine via
/// RoundEngineBase::set_workload; the engine calls prepare_round() once
/// per round (serially), then apply_dense() on a dense round or delta()
/// for each listed node on a sparse one (affected_nodes()).
class WorkloadProcess {
 public:
  virtual ~WorkloadProcess() = default;

  /// Human-readable process name for reports and CSV rows.
  virtual std::string name() const = 0;

  /// Called once before a run; `seed` fixes the per-node streams. Only
  /// the node count is needed (not a Graph), so workloads attach to any
  /// engine substrate — regular, irregular, or matching-based.
  virtual void reset(NodeId n, std::uint64_t seed) = 0;

  /// Serial once-per-round hook, called before any delta() of round t
  /// with the pre-injection loads. Processes needing global state (an
  /// argmax scan) compute it here. Default: no-op.
  virtual void prepare(Step t, std::span<const Load> loads);

  /// The engine's once-per-round hook, in place of prepare(): prepares
  /// round t for an engine that applies a dense round through
  /// apply_dense() and a sparse one through delta(). A process whose dense
  /// round is cheaper applied in one pass (the admission adapter) may
  /// leave that round's per-node work to apply_dense(); delta() and fill()
  /// then answer only on a sparse round. The hook is serial and gets no
  /// pool: per-node work that wants the pool belongs in apply_dense().
  /// Default: prepare(t, loads).
  virtual void prepare_round(Step t, std::span<const Load> loads);

  /// Applies the dense round t, prepared by prepare_round(), to the
  /// engine-wide `loads`: every node's delta by WorkloadTally::apply, the
  /// churn tallied into `tally`. `pool` is the engine's worker pool
  /// (nullptr for a serial round); the loads and the tally must come out
  /// the same at any pool size. Default: fill() in fixed chunks over
  /// `pool`'s ranges when parallel_generate_safe(), else serially, per
  /// chunk in node order.
  virtual void apply_dense(Step t, std::span<Load> loads, ThreadPool* pool,
                           WorkloadTally& tally);

  /// True when prepare() actually reads its loads span (the adversarial
  /// argmax scan); processes that only use t (bursts, Poisson streams)
  /// ignore it. Default: false.
  virtual bool prepare_reads_loads() const { return false; }

  /// Net token demand at node u in round t: > 0 injects that many
  /// tokens, < 0 requests consumption of −delta tokens (the engine
  /// truncates at zero load). Given reset() state and this round's
  /// prepare(), must be a pure function of (u, t) — no shared writes.
  virtual Load delta(NodeId u, Step t) = 0;

  /// Block form of delta(): writes delta(first + i, t) into out[i] for
  /// every i < out.size(). The default apply_dense() reads its deltas only
  /// through this, one call per chunk, under the same purity and
  /// concurrency contract as delta(). Default: a loop over delta(), so a
  /// process that overrides only delta() keeps working; the built-ins
  /// override it with a generation loop free of per-node virtual calls.
  virtual void fill(Step t, NodeId first, std::span<Load> out);

  /// True when delta() over disjoint node ranges may run concurrently
  /// (the counter-stream contract). Default: false — safe for any
  /// third-party process (e.g. one drawing from a sequential member RNG
  /// stream); the engine then generates serially in ascending node
  /// order, exactly like the serial path. All built-in processes
  /// opt in, mirroring Balancer::parallel_decide_safe.
  virtual bool parallel_generate_safe() const { return false; }

  /// Sparse-injection fast path. After prepare(t) or prepare_round(t), a
  /// process whose round is known to touch only a small node set may
  /// expose it here; the engine then calls delta() for exactly those
  /// nodes instead of filling and applying all n — the difference between
  /// O(1) and O(n) bookkeeping per round for a burst or adversary process
  /// on a 2^20-node graph. Contract: delta(u, t) == 0 for every node
  /// outside the list, entries are distinct, and the pointer stays valid
  /// until the next prepare()/reset(). An *empty* list means "no churn
  /// this round"; returning nullptr (the default) means "dense" — the
  /// engine hands every node to apply_dense(). Equivalence with the dense
  /// round is golden-tested for the built-in sparse processes.
  virtual const std::vector<NodeId>* affected_nodes() const {
    return nullptr;
  }

  /// Snapshot hooks, mirroring Balancer::save_state/load_state: persist
  /// whatever reset(n, seed) does not reconstruct — stream seeds, queued
  /// backlogs. Per-round transients (hotspots, adversary targets) need
  /// no capture: snapshots are taken between rounds and prepare() runs
  /// before the next round's deltas. The counter-stream built-ins save
  /// their seed so a restored process replays the identical streams even
  /// if the caller reset it differently. Default: stateless.
  virtual void save_state(StateWriter& w) const;
  virtual void load_state(StateReader& r);
};

/// Deterministic per-node counter streams: node u injects
/// `arrival_amount` tokens in every round with (t + u) % arrival_period
/// == 0 and requests `departure_amount` in every round with
/// (t + u) % departure_period == departure_period − 1. The node stagger
/// spreads the churn evenly across rounds; a period of 0 disables that
/// side of the process.
class CounterWorkload : public WorkloadProcess {
 public:
  struct Params {
    Step arrival_period = 4;
    Load arrival_amount = 1;
    Step departure_period = 4;
    Load departure_amount = 1;
  };

  explicit CounterWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  Load delta(NodeId u, Step t) override;
  /// Steps both phases node by node: no division per node.
  void fill(Step t, NodeId first, std::span<Load> out) override;
  /// Pure arithmetic in (u, t) — ranges may generate concurrently.
  bool parallel_generate_safe() const override { return true; }

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// Seeded stochastic arrival/departure process: per node per round,
/// arrivals ~ Poisson(arrival_rate) and departure requests
/// ~ Poisson(departure_rate), both drawn from the (seed, node, round)
/// counter stream. The two draws are netted into one delta per node per
/// round, so the engine's injected/consumed ledger counts *net* per-node
/// movements, not gross arrival volume (a node drawing 2 in / 2 out
/// contributes 0 to both totals). Consumption truncates at zero load,
/// so the realized departure mass can also fall below the requested
/// rate on drained nodes.
class PoissonWorkload : public WorkloadProcess {
 public:
  struct Params {
    double arrival_rate = 0.5;
    double departure_rate = 0.5;
  };

  explicit PoissonWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  Load delta(NodeId u, Step t) override;
  /// Hoists the round's part of the stream key. With both rates in the
  /// product regime (0 < λ <= 64), a node whose two first uniforms pass
  /// their thresholds draws 0 − 0: that test needs three of the four
  /// generator words, and only the other nodes run the full draw, from
  /// the words already made. Each call picks one kernel
  /// (dynamics/poisson_fill.hpp): with simd::avx512(), the test runs
  /// eight nodes per vector and the full draws run eight at a time too,
  /// on a masked xoshiro256** per lane; with simd::enabled() only, the
  /// test runs four nodes per AVX2 vector and the full draws one by one;
  /// otherwise everything is scalar.
  void fill(Step t, NodeId first, std::span<Load> out) override;
  /// Each delta seeds a throwaway Rng from the (seed, node, round)
  /// stream key — no shared stream, ranges may generate concurrently.
  bool parallel_generate_safe() const override { return true; }

  /// Snapshot state: the counter-stream seed.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  Params params_;
  PoissonSampler arrivals_;
  PoissonSampler departures_;
  std::uint64_t seed_ = 0;
};

/// Burst/hotspot injector: every `period` rounds, `burst` tokens land on
/// one hotspot node drawn from the (seed, round/period) counter stream;
/// optionally every node consumes `drain_amount` tokens every
/// `drain_period` rounds so the injected mass recirculates out.
class BurstWorkload : public WorkloadProcess {
 public:
  struct Params {
    Step period = 32;
    Load burst = 256;
    Step drain_period = 0;  ///< 0 = no drain
    Load drain_amount = 0;
  };

  explicit BurstWorkload(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  void prepare(Step t, std::span<const Load> loads) override;
  Load delta(NodeId u, Step t) override;
  /// The round's drain constant, plus the burst at the hotspot.
  void fill(Step t, NodeId first, std::span<Load> out) override;
  /// delta() only reads the hotspot chosen in the serial prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Sparse on burst-only rounds ({hotspot} or nothing); dense (nullptr)
  /// on rounds where the global drain touches every node.
  const std::vector<NodeId>* affected_nodes() const override;

  /// Hotspot of the current round's burst (set by prepare; −1 when the
  /// round has no burst).
  NodeId hotspot() const noexcept { return hotspot_; }

  /// Snapshot state: the counter-stream seed (hotspot choice is a pure
  /// function of (seed, round) recomputed by the next prepare()).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  Params params_;
  std::uint64_t seed_ = 0;
  NodeId n_ = 0;
  NodeId hotspot_ = -1;
  bool dense_round_ = false;
  std::vector<NodeId> affected_;
};

/// Adversarial injector: every `period` rounds it re-targets the current
/// maximum-load node (lowest index on ties — the scan is deterministic)
/// and injects `amount` tokens there, fighting the balancer's progress
/// the way the Section-4 adversaries fight fairness. With `drain_min` it
/// additionally requests `amount` tokens from the current minimum-load
/// node, keeping the total roughly constant while widening the gap; on
/// a perfectly flat vector the drain is skipped for the round (the
/// ±amount pair would otherwise cancel into a permanent no-op).
class AdversarialInjector : public WorkloadProcess {
 public:
  struct Params {
    Load amount = 8;
    Step period = 1;
    bool drain_min = false;
  };

  explicit AdversarialInjector(Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;
  void prepare(Step t, std::span<const Load> loads) override;
  Load delta(NodeId u, Step t) override;
  /// The argmax/argmin scan is the one built-in prepare() that reads the
  /// loads span — the sharded engine gathers a global copy for it.
  bool prepare_reads_loads() const override { return true; }
  /// delta() only reads the targets chosen in the serial prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Always sparse: at most {argmax, argmin} per round (the prepare()
  /// argmax scan is the process's only O(n) work).
  const std::vector<NodeId>* affected_nodes() const override;

 private:
  Params params_;
  NodeId target_max_ = -1;
  NodeId target_min_ = -1;
  std::vector<NodeId> affected_;
};

}  // namespace dlb
