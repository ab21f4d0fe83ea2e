// ShardedEngine: the decide/apply round over k partitioned load slices.
//
// The flat Engine keeps one n-slot load vector and one next-load buffer;
// this engine cuts the node range into k contiguous shards
// (ShardPartition's balanced split), gives each shard its loads and a
// next-load buffer (a private halo'd window on tier 1, a slice of two
// engine-wide buffers on tier 2), and runs the round phases
// shard-by-shard — shards-as-threads today, with every cross-shard byte
// moving through the narrow ShardChannel seam so the same protocol runs
// over processes later.
//
// Two tiers, selected per (balancer, graph) at construction:
//
//   Tier 1 — windowed gather (balancer->window_reach(g) = W >= 0). The
//   balancer promises next(u) is a pure gather over loads within ring
//   distance W of u, so the only thing shards ever exchange is W boundary
//   *loads* each way, posted before decide (the halo refill) — flows never
//   cross a shard, and structured graphs never materialize cross-shard
//   adjacency (halo geometry is ring arithmetic from the PR-5 structure
//   tags, via ring_halo_segments). A shard's window is its owned slice
//   plus 2W halo slots; decide_window runs the same SIMD kernels as the
//   flat engine over that window, one store per owned slot, with min, max
//   and Σ fused into the emit sweep; the merged folds are the round's
//   statistics and its conservation audit. The O(1) window/next swap then
//   retires the round.
//
//   Tier 2 — routed flows (window_reach < 0: hypercube, generic graphs,
//   stateful balancers). Shards own disjoint slices of one engine-wide
//   load vector and one engine-wide next-load buffer, indexed by global
//   node id. Walking its slice in ascending order, a shard sends each
//   maximal run of interior nodes (no cut edge; the runs come from the
//   edge cut, computed once) through decide_range into a scatter sink —
//   the flat engine's kernel, whose adds all land in the slice. Boundary
//   nodes take decide(): local flows add into the slice, cross-shard ones
//   are staged as (node, amount) records, posted through the channel and
//   drained into the owner's slice after a barrier; one buffer swap
//   retires the round. The round publishes no fused stats; the ledger
//   scans the slices. int64 flow adds commute exactly, so the drain
//   order never shows in the result.
//
// Equivalence contract (golden-tested): for every registered balancer,
// graph family, and workload, a k-shard run is byte-identical to the
// 1-shard run and to the flat Engine — same loads trajectory, same
// conservation ledger, same min/max history. The round bookkeeping — the
// clock, ledger, statistics, audit, workload-delta rule, telemetry and
// core-state bytes — is the RoundLedger the flat engines hold too; this
// engine supplies only where loads live (k windows or slices), how a scan
// visits them (per-shard partial scans, merged in shard order), and how
// dense workload deltas are chunked (one chunk per shard). Snapshots see
// the flat load vector (tier 1 gathers its owned slices in shard order),
// so they move freely between the flat engine and any shard count.
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
  /// True when this run took the tier-1 windowed-gather path.
  bool windowed() const noexcept { return reach_ >= 0; }
  /// Halo width W in ring slots (tier 1), or −1 on the tier-2 path.
  NodeId halo_reach() const noexcept { return reach_; }

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

  /// Executes one synchronous round (workload churn, halo/flow exchange,
  /// decide, apply, audit) across all shards.
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

  /// Load of global node u (window lookup; O(1)). For tests and probes.
  Load load_of(NodeId u) const;
  /// The full load vector, owned slices concatenated in shard order —
  /// exactly the flat engine's loads(). O(n); for tests and reports.
  LoadVector gather_loads() const;

  // --- per-shard geometry and memory accounting (bench/report surface) ---
  NodeId shard_begin(int s) const { return part_.begin(s); }
  NodeId shard_size(int s) const { return part_.size(s); }
  /// Bytes of per-shard resident state: the load window plus the
  /// next-load buffer (both sized owned + 2W; W = 0 on tier 2, where they
  /// are the shard's slices of the engine-wide buffers).
  std::size_t shard_resident_bytes(int s) const;
  /// Bytes of that residency that are halo, not owned slice: the 2W halo
  /// slots of the window and of the next-load buffer (tier 1), or the
  /// flow-staging buffer capacity (tier 2).
  std::size_t shard_halo_bytes(int s) const;
  /// Edges of shard s whose other endpoint lives on another shard (the
  /// edge cut; 0 on the tier-1 path, where no flow ever crosses).
  std::uint64_t shard_cut_edges(int s) const;
  /// Nodes of shard s with no cut edge, which tier 2 decides through the
  /// balancer's decide_range (0 on the tier-1 path).
  NodeId shard_interior_nodes(int s) const;

  /// Byte-identical to RoundEngineBase::save_core_state on the flat
  /// engine holding the same run — the owned slices are gathered in
  /// shard order into one flat load vector before serialization.
  void save_core_state(StateWriter& w) const;
  /// Restores what save_core_state (or a flat engine's) captured,
  /// scattering the flat load vector into the shard windows. The whole
  /// blob is parsed first: on any serial_error nothing has changed. Also
  /// revives any killed shard — a full-state restore redefines every
  /// slice, which is exactly the supervisor's rollback recovery.
  void load_core_state(StateReader& r);

  // --- fault-tolerance surface (driven by ShardSupervisor) -----------

  /// The transport this engine exchanges over (owned or injected).
  ShardChannel& channel() noexcept { return *channel_; }

  /// SIGKILL simulation: wipes shard s's window and next buffer (its
  /// slice of the load vector is *gone*) and marks it dead. step()
  /// refuses to run while any shard is dead — the supervisor must
  /// roll back first (load_core_state revives every shard), exactly as a
  /// real barrier would block on the missing member.
  void kill_shard(int s);
  bool shard_dead(int s) const;
  int dead_shards() const noexcept { return dead_count_; }

 private:
  struct HaloSend {
    int to = 0;                ///< destination shard
    NodeId src_window = 0;     ///< first window slot to read (owned region)
    NodeId len = 0;            ///< slots to send
    NodeId dest_window = 0;    ///< destination's window slot to fill
    std::uint32_t seq = 0;     ///< frame position in the (s, to) stream
    std::uint32_t total = 0;   ///< frames that stream carries per round
  };

  /// Reassembly state of one (sender → this shard) frame stream within
  /// the current exchange. `expected` is static per tier (halo plan
  /// inversion / flow cut), so a sender that goes silent is detected as
  /// an incomplete stream, not silence.
  struct InboundStream {
    std::uint32_t expected = 0;  ///< frames this stream must deliver
    std::uint32_t received = 0;  ///< distinct valid frames seen so far
    std::vector<std::vector<std::byte>> payloads;  ///< by seq (kept capacity)
    std::vector<std::uint8_t> seen;                ///< by seq
  };

  struct Shard {
    NodeId begin = 0;          ///< first owned global node
    NodeId size = 0;           ///< owned node count
    std::span<Load> window;    ///< owned + 2W loads (tier 2: the owned slice)
    std::span<Load> next;      ///< next loads, window-sized
    LoadVector window_store;   ///< tier 1: storage behind window/next
    LoadVector next_store;
    std::vector<HaloSend> sends;          ///< tier 1: halo segments to post
    /// Tier 2: maximal runs [first, last) of interior nodes (no cut
    /// edge), ascending global ids.
    std::vector<std::pair<NodeId, NodeId>> interior;
    std::vector<Load> row;                ///< tier 2: a boundary node's flows
    std::vector<std::vector<std::byte>> flow_out;  ///< tier 2: per-dest staging
    std::uint64_t cut_edges = 0;
    std::vector<std::uint32_t> expect_halo;   ///< frames owed per sender
    std::vector<std::uint8_t> flow_sends_to;  ///< tier 2: dests s must frame
    std::vector<std::uint8_t> expect_flows;   ///< tier 2: senders owing a frame
    std::vector<InboundStream> inbound;       ///< per-sender reassembly
    std::vector<std::vector<std::vector<std::byte>>> sent_frames;
        ///< [dest][seq] retained frames for re-post (lossy channels only)
    std::vector<std::byte> frame_scratch;     ///< frame encode buffer
    std::vector<std::byte> payload_scratch;   ///< halo payload build buffer
    LoadScan scan;  ///< this round's emit stats (tier 1) or partial scan
    WorkloadTally tally;       ///< this round's workload churn
    obs::Counter* bytes_posted = nullptr;   ///< channel bytes this shard sent
    obs::Counter* bytes_drained = nullptr;  ///< channel bytes it received
  };

  /// Window slot of global node u on its owning shard.
  NodeId window_slot(const Shard& sh, NodeId u) const noexcept {
    return (reach_ >= 0 ? reach_ : 0) + (u - sh.begin);
  }

  void build_tier1_plan();
  void build_tier2_plan();

  /// Round phases (see step() for the order and barriers).
  void apply_workload();
  void exchange_halos();
  void decide_shard(int s, Step t);
  void drain_flows();

  // --- framed transport plumbing (see exchange_halos/drain_flows) ----
  /// Frames `payload` and posts it as frame `seq` of `total` on the
  /// (from, to, tag) stream; retains a copy for re-post on lossy
  /// channels.
  void post_frame(int from, int to, ShardTag tag, std::uint32_t seq,
                  std::uint32_t total, std::span<const std::byte> payload);
  /// Resets shard s's reassembly table to the tag's static expectations.
  void reset_inbound(int s, ShardTag tag);
  /// Drains shard s's streams, validating and filing every frame.
  void drain_frames(int s, ShardTag tag);
  /// True when every stream of shard s has all its expected frames.
  bool inbound_complete(int s) const;
  /// Drain/validate/re-post loop: returns only when every expected
  /// stream is complete; throws shard_fault_error when the retry budget
  /// is exhausted.
  void collect_frames(ShardTag tag);
  /// Parses one frame's halo payload ([dest_window, len, loads…]) into
  /// the shard's window.
  void apply_halo_payload(Shard& sh, std::span<const std::byte> payload);
  /// Adds one frame's flow records into the shard's next buffer.
  void apply_flow_payload(Shard& sh, std::span<const std::byte> payload);
  /// Applies shard s's completed `tag` streams in (sender, seq) order.
  void apply_frames(int s, ShardTag tag);
  /// Drains every shard's `tag` streams and runs finish(s) once shard s
  /// has all its frames (re-posting missing ones on a lossy channel).
  template <class Finish>
  void drain_and_finish(ShardTag tag, Finish&& finish);
  /// Tier-1 decide body: the balancer's windowed gather kernel.
  void decide_tier1_core(Shard& sh, Step t);
  /// Tier-2 decide body: interior runs through decide_range, boundary
  /// nodes through decide() with cross-shard flows staged per destination.
  void decide_tier2_core(int s, Shard& sh, Step t);

  /// Runs body(s) for every shard — through the pool when one is
  /// attached and `parallel_ok`, else serially in ascending shard order.
  /// Each call is a full barrier.
  template <class Body>
  void for_shards(bool parallel_ok, Body&& body);

  /// The global loads (for prepare hooks that read them): the flat load
  /// vector on tier 2, the owned slices gathered into scratch_ on tier 1.
  std::span<const Load> gather_into_scratch() const;

  const Graph* g_;
  ShardedEngineConfig config_;
  Balancer* balancer_;
  ShardPartition part_;
  NodeId reach_ = -1;  ///< tier-1 halo width W, or −1 on tier 2
  std::unique_ptr<InProcessShardChannel> owned_channel_;
  ShardChannel* channel_;
  std::vector<Shard> shards_;
  LoadVector loads_;  ///< tier 2: the engine-wide loads, sliced by shard
  LoadVector next_;   ///< tier 2: the engine-wide next-load buffer
  mutable LoadVector scratch_;  ///< tier 1: global gather buffer (lazily sized)
  std::vector<unsigned char> done_;  ///< drain_and_finish: shards finished

  RoundLedger ledger_;
  ThreadPool* pool_ = nullptr;
  WorkloadProcess* workload_ = nullptr;
  bool lossless_ = true;           ///< cached channel_->lossless()
  std::vector<std::uint8_t> dead_;  ///< killed shards awaiting recovery
  int dead_count_ = 0;
};

}  // namespace dlb
