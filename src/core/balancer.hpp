// The Balancer interface: send decisions over a node's d + d° ports.
//
// Design note (mirrors the paper's model, Section 1.3): a balancer decides,
// for node u with load x_t(u), how many tokens go over each of the d
// original edges and each of the d° self-loops. Tokens assigned to no port
// form the *remainder* r_t(u) (Section 2 allows r_t(u) < d⁺ without loss of
// generality — Proposition A.2). The engine owns token movement and flow
// accounting; class membership (cumulative fairness, round-fairness,
// s-self-preference) is *observed* by auditors rather than trusted, so a
// buggy balancer fails tests instead of silently producing wrong science.
//
// Decision entry points, from ground truth to hot path:
//   decide()        — one node, one step: fills the node's flow row. Every
//                     balancer must implement it; it is the semantic ground
//                     truth and what observers/auditors ultimately see.
//   decide_range()  — one contiguous node range of a round, through a
//                     FlowSink. The default loops over decide(), enforcing
//                     the oversend / negative-flow contract, so third-party
//                     balancers inherit correct batched behavior for free;
//                     the hot schemes override it with tight kernels.
//                     Ranges are the unit of intra-round parallelism: when
//                     parallel_decide_safe() is true the engine may run
//                     disjoint ranges of the same round concurrently.
//   prepare_round() — once-per-round hook, always called serially before
//                     any decide_range of the round (balancers with shared
//                     per-round state — e.g. CONT-MIMIC's continuous
//                     trajectory — advance it here, keeping decide_range
//                     free of cross-node writes).
// A serial engine step is prepare_round() then one decide_range() over
// every node.
#pragma once

#include <span>
#include <string>

#include "core/load_vector.hpp"
#include "graph/graph.hpp"
#include "util/serial.hpp"

namespace dlb {

/// Where a round's decisions land. Created by the engine once per step.
///
/// Two modes:
///   * row mode — row(u) is node u's per-port record (size d⁺, layout
///     [(u − first)*(d+d°) + port]). Kernels fill every row of their range
///     and do nothing else. The flat engine's observer rounds read the
///     rows as the step's flow matrix and pull each node's incoming flow
///     through rev_port; a RoundPlan decides boundary nodes this way and
///     routes or pulls their rows.
///   * scatter mode — no rows exist; kernels write the round's next loads
///     straight into a plain n-slot buffer. A *gather* kernel (the
///     balancer's gathers(g) is true) stores each slot of its range
///     exactly once over an older round's loads; every other kernel is
///     *multi-touch* — next[v] += f for tokens sent over an edge (u→v),
///     next[u] += kept for self-loop tokens and the remainder — into a
///     buffer zero-filled first. This is the hot path of every
///     observer-free round: a RoundPlan runs each interior run so.
class FlowSink {
 public:
  /// Row mode. `rows` holds the records of nodes [first, …), (d+d°)
  /// entries each — the engines pass the whole n×(d+d°) matrix with
  /// first = 0. Rows need not be pre-zeroed (kernels overwrite every
  /// entry of the rows they decide).
  FlowSink(const Graph& g, int d_loops, Load* rows, NodeId first = 0)
      : FlowSink(g, d_loops, rows, first, nullptr) {}

  /// Scatter mode into `next` (n slots): zero-filled unless the
  /// balancer gathers on the graph.
  static FlowSink scatter(const Graph& g, int d_loops, Load* next) {
    return FlowSink(g, d_loops, nullptr, 0, next);
  }

  const Graph& graph() const noexcept { return *g_; }
  int self_loops() const noexcept { return d_loops_; }
  /// d⁺ = d + d°, the width of a flow row.
  int ports() const noexcept { return d_plus_; }

  /// True when kernels must fill per-node rows (row mode); false when
  /// they must write the next-load buffer (scatter mode).
  bool row_mode() const noexcept { return rows_ != nullptr; }

  /// Node u's per-port record (size d⁺). Row mode only.
  std::span<Load> row(NodeId u) const noexcept {
    return {rows_ + static_cast<std::size_t>(u - first_) * d_plus_,
            static_cast<std::size_t>(d_plus_)};
  }

  /// The next-load buffer. Scatter mode only; hot kernels hoist it out
  /// of their node loop.
  Load* next() const noexcept { return next_; }

  /// next[v] += f. Scatter mode only; a convenience for cold call sites.
  void add(NodeId v, Load f) const noexcept {
    next_[static_cast<std::size_t>(v)] += f;
  }

  /// Emit-fused round statistics. A gather kernel has every value it
  /// stores in hand, so it folds min, max and a wrapping Σ into the emit
  /// sweep and reports them here with how many slots it covered. A
  /// RoundPlan requires every interior slot covered (an unwritten slot
  /// would still hold an older round's load); the scan is then the
  /// round's statistics and its conservation audit. Multi-touch kernels
  /// never call this.
  void merge_emit_stats(const LoadScan& emitted, NodeId covered) noexcept {
    emit_.merge(emitted);
    emit_covered_ += covered;
  }
  NodeId emit_covered() const noexcept { return emit_covered_; }
  const LoadScan& emit_stats() const noexcept { return emit_; }

 private:
  FlowSink(const Graph& g, int d_loops, Load* rows, NodeId first, Load* next)
      : g_(&g), d_loops_(d_loops), d_plus_(g.degree() + d_loops),
        rows_(rows), first_(first), next_(next) {}

  const Graph* g_;
  int d_loops_;
  int d_plus_;
  Load* rows_;  // nullptr in scatter mode
  NodeId first_;  // node of rows_[0] in row mode
  Load* next_;  // nullptr in row mode
  LoadScan emit_;
  NodeId emit_covered_ = 0;
};

/// Per-node (decide) and per-range (decide_range) send policy.
///
/// Implementations may keep internal per-node state (rotor positions);
/// stateless algorithms (SEND variants) must depend only on the load.
class Balancer {
 public:
  virtual ~Balancer() = default;

  /// Human-readable algorithm name for reports.
  virtual std::string name() const = 0;

  /// Called once before a run. `d_loops` is the engine's d°; balancers
  /// that need per-node state size it here.
  virtual void reset(const Graph& graph, int d_loops) = 0;

  /// Fills `flows` (size d + d°) with the token counts for step `t`:
  /// entries [0, d) are the original edges in the graph's port order,
  /// entries [d, d+d°) are the self-loops. Unassigned tokens remain at u
  /// as the remainder. The sum of flows must not exceed `load` unless
  /// allows_negative() is true.
  virtual void decide(NodeId u, Load load, Step t, std::span<Load> flows) = 0;

  /// Once-per-round hook, called serially before any decide_range of the
  /// round. Balancers whose rounds share state beyond per-node slots
  /// advance it here so that decide_range stays free of cross-node
  /// writes. Default: no-op.
  virtual void prepare_round(std::span<const Load> loads, Step t,
                             FlowSink& sink);

  /// Decides nodes [first, last) of the round. The default implementation
  /// calls decide() for every node in ascending order, enforcing the
  /// oversend / negative-flow contract exactly as the classic engine did,
  /// and works in both sink modes (in scatter mode it is multi-touch, so
  /// a balancer that keeps it must leave gathers false). Overrides
  /// must be *observationally identical* to the default (same loads
  /// trajectory, same internal state evolution) — the golden-equivalence
  /// test asserts this for every registered balancer.
  virtual void decide_range(NodeId first, NodeId last,
                            std::span<const Load> loads, Step t,
                            FlowSink& sink);

  /// True when this balancer *gathers* on `g`: decide_range in scatter
  /// mode stores each slot of its range exactly once, reading only the
  /// range's nodes and their neighbors, and reports merge_emit_stats
  /// (min, max and Σ of what it stored) over the whole range; and a
  /// node's decision (decide(), or decide_range in row mode) is a pure
  /// function of its load, so an engine may ask for any node's, in any
  /// order, without changing the trajectory. A RoundPlan then skips the
  /// zero-fill, lets each interior run store its slots and each boundary
  /// node pull its same-part terms from its neighbors' rows, and audits
  /// conservation against the emitted Σ (the ledger's full rescan comes
  /// every kRescanInterval-th round). A round that leaves a slot
  /// unwritten throws invariant_error. Default: false.
  virtual bool gathers(const Graph& g) const;

  /// True when decide_range over disjoint ranges may run concurrently —
  /// i.e. a node's decision touches only that node's own state (rotor
  /// slots, per-edge carries) plus read-only data. Balancers drawing from
  /// one sequential RNG stream (RAND-EXTRA, RAND-ROUND) must leave this
  /// false; the engines then decide in ascending node order, so the RNG
  /// stream matches the serial path. Default: false — safe for any
  /// third-party balancer.
  virtual bool parallel_decide_safe() const { return false; }

  /// True for schemes (e.g. randomized rounding of [18]) that may send
  /// more than the available load, creating negative loads.
  virtual bool allows_negative() const { return false; }

  /// Serializes the balancer's complete mutable run state (everything
  /// reset() does not reconstruct from the constructor arguments: rotor
  /// positions, per-edge carries, RNG words, the CONT-MIMIC continuous
  /// trajectory). Stateless schemes inherit the no-op default. The
  /// crash-recovery contract: for any balancer B reset on graph G,
  /// save_state followed by (reset + load_state on an equal instance)
  /// must reproduce the exact decide trajectory — the snapshot
  /// equivalence gate asserts this for every registered balancer.
  virtual void save_state(StateWriter& w) const;

  /// Restores what save_state captured. Called after reset() on an
  /// instance constructed with the same parameters; must consume the
  /// buffer exactly (the snapshot layer rejects trailing bytes, so a
  /// field forgotten on either side is a caught error, not silent
  /// drift). Throws serial_error / invariant_error on any mismatch.
  virtual void load_state(StateReader& r);
};

}  // namespace dlb
