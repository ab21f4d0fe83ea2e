// AdmissionQueue: a WorkloadProcess adapter that rate-limits injection.
//
// A service-mode balancer can face demand bursts that outpace the round
// rate — the paper's model injects whatever the adversary chooses, but a
// deployment admits work at a bounded rate and queues the rest. This
// adapter caps the total tokens *admitted* per round at `round_cap`.
// Consumption (negative deltas) is never queued — work completing is not
// subject to admission control.
//
// Policy: per-node FIFO. Each node has one pending counter, and the nodes
// with a positive counter wait in a FIFO ring. A round
//   1. passes the inner process's negative deltas through,
//   2. adds its positive deltas to the nodes' pending counters,
//   3. appends the nodes whose counter just became positive to the ring
//      tail, in ascending node order,
//   4. admits up to round_cap tokens from the ring front; a partial
//      admission leaves that node at the front.
// A node's later arrivals merge into its earlier place in the queue, so
// the state is O(n) however long an overload lasts: n counters, a ring of
// at most n node ids, and a running token total (backlog_total() is O(1)).
// When no node ever has two requests queued this is exactly the classic
// request-FIFO (backlog first, then the round's arrivals by node).
//
// A dense round runs as one pass over fixed node blocks: the inner process
// fill()s a stack chunk, its positive deltas are booked, and every node's
// final delta goes to a sink. For that, the drain (step 4) is decided
// before the pass. It only ever takes a prefix of the ring, at most
// round_cap nodes, so prepare_round() walks the old ring's front with
// point queries of the inner process, granting each node
// min(pending + max(0, delta), budget); the pass then hands a node's
// consumption and its grant to the sink as one delta, as the policy
// defines them. Only when the old ring runs dry do nodes appended this
// round get grants, after the pass (their pass delta was 0, since they
// drew arrivals).
//   * apply_dense() — the engine's path — sinks straight into the loads by
//     WorkloadTally::apply, with the blocks spread over the engine's pool
//     when the inner process is parallel-safe;
//   * prepare() — the point-query path, for forwarding wrappers and tests
//     — sinks into a per-node table that delta() and fill() read. The
//     table is allocated on its first use, so an engine that attaches the
//     queue itself never touches it on dense rounds.
// The blocks depend only on n, and their newly pending nodes are appended
// to the ring in block order, so the state is byte-identical at any thread
// count and on either path. A sparse round (the inner process lists its
// touched nodes) books the list and drains into the table.
//
// The queue is part of the recovery state: save_state/load_state persist
// the ring (node, pending amount) in FIFO order after the inner process's
// state — 12 bytes per pending node. load_state validates that extent in
// one pass before it changes anything, and also reads the format-v1
// request list (one entry per queued request), summing each node's
// amounts and ordering nodes by first occurrence.
#pragma once

#include <vector>

#include "dynamics/workload.hpp"

namespace dlb {

class AdmissionQueue : public WorkloadProcess {
 public:
  struct Params {
    Load round_cap = 64;  ///< max tokens admitted per round (>= 1)
  };

  /// Wraps `inner` (not owned; must outlive this adapter).
  AdmissionQueue(WorkloadProcess& inner, Params params);

  std::string name() const override;
  void reset(NodeId n, std::uint64_t seed) override;

  /// Advances the inner process and runs the whole round into the table
  /// that delta() and fill() read (the point-query path). Throws
  /// invariant_error naming the node and round if the pending tokens would
  /// overflow the int64 ledger.
  void prepare(Step t, std::span<const Load> loads) override;

  /// Advances the inner process. A sparse round then runs as in prepare();
  /// a dense one only decides the old ring's share of the drain, and
  /// apply_dense() runs the rest.
  void prepare_round(Step t, std::span<const Load> loads) override;

  /// The dense round prepared by prepare_round(), in one pass that applies
  /// each node's final delta to `loads` (blocks on `pool` when the inner
  /// process is parallel-safe). Same state at any pool size; throws as
  /// prepare() does.
  void apply_dense(Step t, std::span<Load> loads, ThreadPool* pool,
                   WorkloadTally& tally) override;

  /// Point queries of the table prepare() builds (on a sparse round,
  /// prepare_round() too).
  Load delta(NodeId u, Step t) override;
  /// Copies the round table.
  void fill(Step t, NodeId first, std::span<Load> out) override;

  /// delta() and fill() only read the table built in prepare().
  bool parallel_generate_safe() const override { return true; }

  /// Adapter: whether prepare() needs the loads is the inner process's
  /// business — this wrapper only forwards the span.
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }

  /// Dense (nullptr) when the inner process's round was dense, otherwise
  /// the touched-node list.
  const std::vector<NodeId>* affected_nodes() const override;

  /// Snapshot state: the inner process's state, then the ring.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Tokens currently queued.
  Load backlog_total() const noexcept { return backlog_total_; }
  /// Nodes with pending admissions (at most n).
  std::size_t backlog_entries() const noexcept { return ring_size_; }
  /// The pending nodes in FIFO order (a copy, for tests and diagnostics).
  std::vector<NodeId> pending_nodes() const;

 private:
  /// Per-block output of the pass.
  struct alignas(64) Block {
    std::vector<NodeId> fresh;  ///< nodes whose counter became positive
    Load arrived = 0;           ///< positive tokens added this round
    bool overflow = false;      ///< a counter or `arrived` overflowed
    WorkloadTally tally;        ///< churn applied to the loads
  };
  /// One node's share of the coming drain.
  struct Grant {
    NodeId node;
    Load granted;
  };

  /// Sparse round: books the inner process's listed nodes, then drains,
  /// into the table.
  void sparse_round(Step t, const std::vector<NodeId>& nodes);
  /// Decides the old ring front's grants for dense round t.
  void plan_drain(Step t);
  /// The pass over block b: books its positive deltas and hands each
  /// chunk's final deltas to sink(tally, first, deltas, touched), the
  /// tally the block's; `touched` lists, in order, the offsets of every
  /// delta that may be nonzero.
  template <class Sink>
  void pass_block(Step t, std::size_t b, Sink& sink);
  /// Books the blocks' arrivals into the total and the ring, in block
  /// order; on overflow, throws naming the first node that overflows.
  void commit_blocks(Step t);
  /// Admits up to round_cap tokens from the ring front. Its first
  /// planned_.size() grants are the planned ones, which the pass applied;
  /// every later one goes to grant(u, g).
  template <class GrantFn>
  void drain(GrantFn&& grant);
  void push_ring(NodeId u);
  /// The table, zeroed on its first use.
  std::vector<Load>& table();
  void publish_backlog() const;
  [[noreturn]] void throw_overflow(NodeId u, Step t) const;

  WorkloadProcess* inner_;
  Params params_;
  NodeId n_ = 0;
  std::vector<Load> pending_;      // per-node queued tokens
  std::vector<NodeId> ring_;       // FIFO of nodes with pending_ > 0
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  Load backlog_total_ = 0;         // Σ pending_
  std::vector<Block> blocks_;      // fixed by n
  std::vector<Grant> planned_;     // the old ring front's grants, by node
  std::vector<Load> round_delta_;  // per-node table for delta(); lazy
  std::vector<NodeId> affected_;   // nodes touched this round (sparse)
  bool dense_ = false;             // this round covers every node
  bool table_full_ = false;        // a dense round wrote the whole table
  bool deferred_ = false;          // apply_dense() runs this round's pass
};

}  // namespace dlb
