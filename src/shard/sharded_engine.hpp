// ShardedEngine: the round over k load slices, exchanged through a
// channel.
//
// The engine cuts the node range into k contiguous shards, each with its
// slice of the load and next-load buffers, and runs the round
// shard-by-shard — shards-as-threads today, with every cross-shard byte
// moving through the narrow ShardChannel seam so the same protocol runs
// over processes later. The round itself is the RoundPlan of
// core/round_plan.hpp, which the flat engine's pooled rounds run too:
// each shard decides its part and stages one flow per cut edge. This
// engine adds the transport: each shard frames what it staged for each
// other shard (shard/framing.hpp) and posts it; after a barrier every
// shard drains, validates and re-requests its frames until its roster is
// complete, then hands each payload to the plan in sender order. A lost,
// damaged or stale frame is re-posted, never applied, so a faulted round
// stays byte-identical to a clean one.
//
// Equivalence contract (golden-tested): for every registered balancer,
// graph family, and workload, a k-shard run is byte-identical to the
// 1-shard run and to the flat Engine — same loads trajectory, ledger and
// min/max history. The round bookkeeping is the RoundLedger the flat
// engines hold too; this engine supplies only how a scan visits the loads
// (per-shard partial scans, merged in shard order). The workload process
// applies its round to the engine-wide load vector, as on the flat
// engine. Snapshots see the flat load vector, so they move freely between
// the flat engine and any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/load_vector.hpp"
#include "core/round_ledger.hpp"
#include "core/round_plan.hpp"
#include "graph/graph.hpp"
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

  int shards() const noexcept { return plan_->parts(); }
  /// True when the balancer gathers on this graph (Balancer::gathers):
  /// interior runs store whole slots and boundary nodes pull.
  bool windowed() const noexcept { return plan_->gathers(); }

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
           static_cast<double>(plan_->partition().num_nodes());
  }
  Load discrepancy() const noexcept { return ledger_.discrepancy(); }
  Load min_load_seen() const noexcept { return ledger_.min_load_seen(); }

  /// Load of global node u (O(1)). For tests and probes.
  Load load_of(NodeId u) const;
  /// A copy of the full load vector — the owned slices in shard order,
  /// exactly the flat engine's loads(). O(n); for tests and reports.
  LoadVector gather_loads() const { return loads_; }

  // --- per-shard geometry and memory accounting (bench/report surface) ---
  NodeId shard_begin(int s) const { return plan_->partition().begin(s); }
  NodeId shard_size(int s) const { return plan_->partition().size(s); }
  /// Bytes of per-shard resident state: the shard's slices of the
  /// engine-wide load and next-load buffers.
  std::size_t shard_resident_bytes(int s) const;
  /// Bytes of the shard's cut-flow staging buffers.
  std::size_t shard_halo_bytes(int s) const {
    return plan_->cut_edges(s) * sizeof(Load);
  }
  /// Edges of shard s whose other endpoint lives on another shard (the
  /// edge cut).
  std::uint64_t shard_cut_edges(int s) const { return plan_->cut_edges(s); }
  /// Nodes of shard s with no cut edge, which the shard decides through
  /// the balancer's decide_range.
  NodeId shard_interior_nodes(int s) const {
    return plan_->interior_nodes(s);
  }

  /// Byte-identical to RoundEngineBase::save_core_state on the flat
  /// engine holding the same run — the owned slices are gathered in
  /// shard order into one flat load vector before serialization.
  void save_core_state(StateWriter& w) const;
  /// Restores what save_core_state (or a flat engine's) captured into
  /// the shard slices. The whole blob is parsed first: on any
  /// serial_error nothing has changed. Also revives any killed shard — a
  /// full-state restore redefines every slice, which is exactly the
  /// supervisor's rollback recovery.
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
  /// One (sender → this shard) frame stream of the current round: at
  /// most one frame, owed iff the sender stages flows for this shard, so
  /// a silent sender shows as an incomplete stream.
  struct InboundStream {
    bool seen = false;               ///< this round's frame has arrived
    std::vector<std::byte> payload;  ///< its payload (kept capacity)
  };

  struct Shard {
    std::span<Load> loads;   ///< the owned slice of the engine-wide loads
    std::span<Load> next;    ///< the owned slice of the next-load buffer
    std::vector<InboundStream> inbound;       ///< per-sender reassembly
    std::vector<std::vector<std::byte>> sent_frames;
        ///< [dest] this round's frame, retained for re-post (lossy only)
    std::vector<std::byte> frame_scratch;     ///< frame encode buffer
    LoadScan scan;  ///< this round's emit stats (gather) or partial scan
    obs::Counter* bytes_posted = nullptr;   ///< channel bytes this shard sent
    obs::Counter* bytes_drained = nullptr;  ///< channel bytes it received
  };

  /// Round phases (see step() for the order and barriers).
  void decide_shard(int s, Step t);
  void drain_flows();

  // --- framed transport plumbing (see decide_shard/drain_flows) -------
  /// True when shard `from` owes shard `to` a flow frame every round.
  bool expects(int to, int from) const {
    return !plan_->staged(from, to).empty();
  }
  /// True when that frame has not arrived yet this round.
  bool missing(int to, int from) const {
    return expects(to, from) && !shards_[static_cast<std::size_t>(to)]
                                     .inbound[static_cast<std::size_t>(from)]
                                     .seen;
  }
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
  /// Hands shard s's frames to the plan in sender order, then closes the
  /// shard's part.
  void finish_shard(int s);

  /// Runs body(s) for every shard — through the pool when one is
  /// attached and `parallel_ok`, else serially in ascending shard order.
  /// Each call is a full barrier.
  template <class Body>
  void for_shards(bool parallel_ok, const Body& body) {
    const bool pooled = parallel_ok && pool_ != nullptr &&
                        pool_->parallelism() > 1 && shards() > 1;
    plan_->each_part(pooled ? pool_ : nullptr, body);
  }

  const Graph* g_;
  ShardedEngineConfig config_;
  Balancer* balancer_;
  std::optional<RoundPlan> plan_;  ///< the partition, cut and staging
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
