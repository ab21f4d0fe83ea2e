// ShardedEngine: the decide/apply round over k partitioned load slices.
//
// The flat Engine keeps one n-slot load vector and one next-load buffer;
// this engine cuts the node range into k contiguous shards
// (ShardPartition's balanced split), gives each shard its slice of both
// buffers, and runs the round phases shard-by-shard — shards-as-threads
// today, with every cross-shard byte moving through the narrow
// ShardChannel seam so the same protocol runs over processes later.
//
// One round plan serves every balancer on every graph. The edge cut,
// computed once at construction, splits each slice into maximal runs of
// interior nodes (no cut edge) and boundary nodes. Walking its slice, a
// shard sends each interior run through the balancer's decide_range —
// the flat engine's kernel, whose reads and writes all stay in the slice
// — and decides its boundary nodes one at a time. Flows over a cut edge
// are staged in the cut's fixed edge order, one amount per edge, posted
// through the channel and drained into the owner's slice after a
// barrier (the receiver knows each edge's head from the cut); one buffer
// swap retires the round. int64 flow adds commute exactly, so the drain
// order never shows in the result. How a boundary node decides depends
// on the kernel:
//
//   Multi-touch (balancer->gathers(g) is false: ROTOR-ROUTER, any
//   stateful or randomized scheme, the hypercube and generic graphs). The
//   slice is zero-filled, interior runs add into it, a boundary node runs
//   decide() in ascending order and adds its local flows into the slice.
//   The round publishes no fused stats; the ledger scans the slices.
//
//   Gather (gathers(g) is true: SEND(floor) on the cycle and torus).
//   Nothing is zero-filled: an interior run stores each of its slots once,
//   and a boundary node b stores kept(b) plus its same-shard neighbors'
//   flows into it, read from their decide() at the reverse port — a
//   gather's decide is a pure function of the load, and each node's
//   decision is worked out once per round. After the drain, the boundary
//   slots are folded into the runs' emitted min, max and Σ, and the merged
//   scan is the round's statistics and its conservation audit.
//
// Equivalence contract (golden-tested): for every registered balancer,
// graph family, and workload, a k-shard run is byte-identical to the
// 1-shard run and to the flat Engine — same loads trajectory, same
// conservation ledger, same min/max history. The round bookkeeping — the
// clock, ledger, statistics, audit, workload-delta rule, telemetry and
// core-state bytes — is the RoundLedger the flat engines hold too; this
// engine supplies only how a scan visits the loads (per-shard partial
// scans, merged in shard order) and how dense workload deltas are chunked
// (one chunk per shard). Snapshots see the flat load vector, so they move
// freely between the flat engine and any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/load_vector.hpp"
#include "core/round_ledger.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"  // ShardPartition
#include "shard/channel.hpp"
#include "util/serial.hpp"

namespace dlb {

/// Mirrors EngineConfig for the sharded substrate (flow matrices are a
/// flat-engine concern; shards always scatter).
struct ShardedEngineConfig {
  int self_loops = 0;  ///< d° self-loops per node
  /// Frame-loss recovery budget (only consulted on a lossy channel).
  /// After an exchange's drains, any (sender → receiver) stream that is
  /// still incomplete — frames lost, corrupted, truncated, or delayed —
  /// triggers an immediate re-post of exactly the missing sequence
  /// numbers (on the in-process channel the re-post *is* the recovery);
  /// the engine retries up to `max_retries` times before giving up with
  /// shard_fault_error.
  struct FaultTolerance {
    int max_retries = 8;
  } fault{};
};

class ShardedEngine {
 public:
  /// Partitions `initial` (size n) into `shards` contiguous slices.
  /// `balancer` is not owned and must outlive the engine (same contract
  /// as Engine). `channel` is the cross-shard transport; nullptr selects
  /// an owned InProcessShardChannel. A non-null channel must connect
  /// exactly `shards` endpoints.
  ShardedEngine(const Graph& g, ShardedEngineConfig config,
                Balancer& balancer, const LoadVector& initial, int shards,
                ShardChannel* channel = nullptr);

  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const Graph& graph() const noexcept { return *g_; }
  const ShardedEngineConfig& config() const noexcept { return config_; }
  int self_loops() const noexcept { return config_.self_loops; }
  int balancing_degree() const noexcept {
    return g_->degree() + config_.self_loops;
  }
  Balancer& balancer() noexcept { return *balancer_; }
  const Balancer& balancer() const noexcept { return *balancer_; }

  int shards() const noexcept { return part_.shards(); }
  /// True when the balancer gathers on this graph (Balancer::gathers):
  /// interior runs store whole slots and boundary nodes pull.
  bool windowed() const noexcept { return gather_; }

  /// Attaches a worker pool (not owned; nullptr detaches). Shards then
  /// run their round phases concurrently — byte-identically to the
  /// serial shard order at any pool size.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }
  ThreadPool* thread_pool() const noexcept { return pool_; }

  /// Attaches an online workload (not owned; nullptr detaches) — the
  /// RoundLedger's delta rule and conservation ledger, as on the flat
  /// engine.
  void set_workload(WorkloadProcess* workload) noexcept {
    workload_ = workload;
  }
  WorkloadProcess* workload() const noexcept { return workload_; }

  /// Executes one synchronous round (workload churn, decide, flow
  /// exchange, apply, audit) across all shards.
  void step();
  /// Executes `steps` rounds.
  void run(Step steps);

  Step time() const noexcept { return ledger_.time(); }
  Load total() const noexcept { return ledger_.total(); }
  Load base_total() const noexcept { return ledger_.base_total(); }
  Load injected_total() const noexcept { return ledger_.injected_total(); }
  Load consumed_total() const noexcept { return ledger_.consumed_total(); }
  double average() const {
    return static_cast<double>(total()) /
           static_cast<double>(part_.num_nodes());
  }
  Load discrepancy() const noexcept { return ledger_.discrepancy(); }
  Load min_load_seen() const noexcept { return ledger_.min_load_seen(); }

  /// Load of global node u (O(1)). For tests and probes.
  Load load_of(NodeId u) const;
  /// A copy of the full load vector — the owned slices in shard order,
  /// exactly the flat engine's loads(). O(n); for tests and reports.
  LoadVector gather_loads() const { return loads_; }

  // --- per-shard geometry and memory accounting (bench/report surface) ---
  NodeId shard_begin(int s) const { return part_.begin(s); }
  NodeId shard_size(int s) const { return part_.size(s); }
  /// Bytes of per-shard resident state: the shard's slices of the
  /// engine-wide load and next-load buffers.
  std::size_t shard_resident_bytes(int s) const;
  /// Bytes of the shard's cut-flow staging buffers.
  std::size_t shard_halo_bytes(int s) const;
  /// Edges of shard s whose other endpoint lives on another shard (the
  /// edge cut).
  std::uint64_t shard_cut_edges(int s) const;
  /// Nodes of shard s with no cut edge, which the shard decides through
  /// the balancer's decide_range.
  NodeId shard_interior_nodes(int s) const;

  /// Byte-identical to RoundEngineBase::save_core_state on the flat
  /// engine holding the same run — the owned slices are gathered in
  /// shard order into one flat load vector before serialization.
  void save_core_state(StateWriter& w) const;
  /// Restores what save_core_state (or a flat engine's) captured into
  /// the shard slices. The whole
  /// blob is parsed first: on any serial_error nothing has changed. Also
  /// revives any killed shard — a full-state restore redefines every
  /// slice, which is exactly the supervisor's rollback recovery.
  void load_core_state(StateReader& r);

  // --- fault-tolerance surface (driven by ShardSupervisor) -----------

  /// The transport this engine exchanges over (owned or injected).
  ShardChannel& channel() noexcept { return *channel_; }

  /// SIGKILL simulation: wipes shard s's load and next-load slices (its
  /// slice of the load vector is *gone*) and marks it dead. step()
  /// refuses to run while any shard is dead — the supervisor must
  /// roll back first (load_core_state revives every shard), exactly as a
  /// real barrier would block on the missing member.
  void kill_shard(int s);
  bool shard_dead(int s) const;
  int dead_shards() const noexcept { return dead_count_; }

 private:
  /// Reassembly state of one (sender → this shard) frame stream within
  /// the current round. Every stream carries at most one frame per round,
  /// and whether it carries one is fixed by the edge cut, so a sender that
  /// goes silent is detected as an incomplete stream, not silence.
  struct InboundStream {
    /// Heads of the sender's cut edges into this shard, in edge-cut
    /// order: the frame carries one flow for each. Empty when the sender
    /// owes no frame.
    std::vector<NodeId> heads;
    bool seen = false;               ///< this round's frame has arrived
    std::vector<std::byte> payload;  ///< its payload (kept capacity)
  };

  struct Shard {
    NodeId begin = 0;        ///< first owned global node
    NodeId size = 0;         ///< owned node count
    std::span<Load> loads;   ///< the owned slice of the engine-wide loads
    std::span<Load> next;    ///< the owned slice of the next-load buffer
    /// Maximal runs [first, last) of interior nodes (no cut edge),
    /// ascending global ids, and their node count.
    std::vector<std::pair<NodeId, NodeId>> interior;
    NodeId interior_nodes = 0;
    std::vector<Load> row;   ///< multi-touch: a boundary node's flows
    /// The shard's cut edges in edge-cut order (ascending node, then
    /// port): where each one's flow is staged, and for a gather where its
    /// flow is in `rows`.
    struct Cut {
      int to;              ///< the shard owning the edge's head
      std::size_t at;      ///< byte offset of its flow in flow_out[to]
      std::int64_t flow;   ///< gather: offset of its flow in `rows`
    };
    std::vector<Cut> cuts;
    /// Per destination, this round's flows over the cut edges into it —
    /// the payload of the frame sent there (empty: no frame).
    std::vector<std::vector<std::byte>> flow_out;
    // Gather plan: the boundary nodes, ascending; the maximal runs
    // [first, last) of nodes whose decisions they read (each boundary
    // node and its same-shard neighbors), ascending, with one d⁺-wide
    // decision row per node in `rows`; and per boundary node, 1 + d
    // offsets into `rows` — its own row, then per port the neighbor's
    // flow into it (−1 across the cut).
    std::vector<NodeId> boundary;
    std::vector<std::pair<NodeId, NodeId>> sources;
    std::vector<Load> rows;
    std::vector<std::int64_t> pulls;
    std::vector<InboundStream> inbound;       ///< per-sender reassembly
    std::vector<std::vector<std::byte>> sent_frames;
        ///< [dest] this round's frame, retained for re-post (lossy only)
    std::vector<std::byte> frame_scratch;     ///< frame encode buffer
    LoadScan scan;  ///< this round's emit stats (gather) or partial scan
    WorkloadTally tally;       ///< this round's workload churn
    obs::Counter* bytes_posted = nullptr;   ///< channel bytes this shard sent
    obs::Counter* bytes_drained = nullptr;  ///< channel bytes it received
  };

  void build_plan();

  /// Round phases (see step() for the order and barriers).
  void apply_workload();
  void decide_shard(int s, Step t);
  void drain_flows();

  // --- framed transport plumbing (see decide_shard/drain_flows) -------
  /// Frames `payload` as this round's flow frame on the (from, to) stream
  /// and posts it; retains a copy for re-post on lossy channels.
  void post_frame(int from, int to, std::span<const std::byte> payload);
  /// Drains shard s's streams, validating and filing every frame.
  void drain_frames(int s);
  /// True when every stream of shard s has its expected frame.
  bool inbound_complete(int s) const;
  /// Drain/validate/re-post loop: returns only when every expected
  /// stream is complete; throws shard_fault_error when the retry budget
  /// is exhausted.
  void collect_frames();
  /// Adds one stream's flows into the shard's next buffer.
  void apply_flow_payload(Shard& sh, const InboundStream& st);
  /// Applies shard s's frames in sender order, then folds a gather's
  /// boundary slots into the shard's emit scan.
  void finish_shard(int s);
  /// Multi-touch decide: interior runs through decide_range, boundary
  /// nodes through decide() with cross-shard flows staged per destination.
  void decide_scatter(int s, Shard& sh, Step t);
  /// Gather decide: interior runs store their slots, boundary nodes pull.
  void decide_gather(Shard& sh, Step t);

  /// Runs body(s) for every shard — through the pool when one is
  /// attached and `parallel_ok`, else serially in ascending shard order.
  /// Each call is a full barrier.
  template <class Body>
  void for_shards(bool parallel_ok, Body&& body);

  const Graph* g_;
  ShardedEngineConfig config_;
  Balancer* balancer_;
  ShardPartition part_;
  bool gather_ = false;  ///< balancer_->gathers(*g_)
  std::unique_ptr<InProcessShardChannel> owned_channel_;
  ShardChannel* channel_;
  std::vector<Shard> shards_;
  LoadVector loads_;  ///< the engine-wide loads, sliced by shard
  LoadVector next_;   ///< the engine-wide next-load buffer
  std::vector<unsigned char> done_;  ///< drain_flows: shards finished

  RoundLedger ledger_;
  ThreadPool* pool_ = nullptr;
  WorkloadProcess* workload_ = nullptr;
  bool lossless_ = true;           ///< cached channel_->lossless()
  std::vector<std::uint8_t> dead_;  ///< killed shards awaiting recovery
  int dead_count_ = 0;
};

}  // namespace dlb
