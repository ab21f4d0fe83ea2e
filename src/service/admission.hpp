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
// The per-node work (inner deltas, the round table, the pending counters)
// runs as one pass over fixed node blocks, the inner process fill()ing
// each block's deltas straight into its slice of the table;
// prepare_parallel() spreads the blocks over the engine's pool when the
// inner process is dense and parallel-safe. The blocks depend only on n, and their newly pending
// nodes are appended to the ring in block order, so the state is
// byte-identical at any thread count; prepare() runs the same pass
// inline. Only the drain (at most round_cap tokens) is serial.
//
// The queue is part of the recovery state: save_state/load_state persist
// the ring (node, pending amount) in FIFO order after the inner process's
// state — 12 bytes per pending node. load_state also reads the format-v1
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

  /// Advances the inner process, runs the per-node pass serially, then
  /// drains the ring up to the cap. Throws invariant_error naming the node
  /// and round if the pending tokens would overflow the int64 ledger.
  void prepare(Step t, std::span<const Load> loads) override;

  /// prepare() with the per-node pass on `pool` (dense, parallel-safe
  /// inner processes only; otherwise exactly prepare()). Same state at
  /// any pool size.
  void prepare_parallel(Step t, std::span<const Load> loads,
                        ThreadPool& pool) override;

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

  /// Dense (nullptr) when the inner process's round was dense — the table
  /// then covers every node and the engine applies it in parallel —
  /// otherwise the touched-node list.
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
  /// Per-block output of the per-node pass.
  struct alignas(64) Block {
    std::vector<NodeId> fresh;  ///< nodes whose counter became positive
    Load arrived = 0;           ///< positive tokens added this round
    bool overflow = false;      ///< a counter or `arrived` overflowed
  };

  /// The round after the inner prepare: the per-node pass (on `pool` when
  /// it may run there), then the drain.
  void admit_round(Step t, ThreadPool* pool);
  /// Dense per-node pass over blocks [first, last) of round t.
  void pass_blocks(Step t, std::int64_t first, std::int64_t last);
  /// Books the blocks' arrivals into the total and the ring, in block
  /// order; on overflow, throws naming the first node that overflows.
  void commit_blocks(Step t);
  /// Sparse round: only the inner process's listed nodes.
  void pass_sparse(Step t, const std::vector<NodeId>& nodes);
  /// Admits up to round_cap tokens from the ring front.
  void drain();
  void push_ring(NodeId u);
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
  std::vector<Load> round_delta_;  // per-node table for delta()
  std::vector<NodeId> affected_;   // nodes touched this round (sparse)
  bool dense_ = false;             // this round's table covers every node
};

}  // namespace dlb
