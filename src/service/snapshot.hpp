// EngineSnapshot: versioned, checksummed capture of an Engine's complete
// stepping state — the crash-recovery half of the service subsystem.
//
// A snapshot taken between rounds captures everything the next round
// depends on: the load vector and round counter, the conservation ledger
// (base/injected/consumed totals), the cached statistics, the balancer's
// internal state (rotor ports, bounded-error residuals, CONT-MIMIC's
// continuous trajectory, RNG words), the workload's stream seed, and —
// optionally — a SteadyStateTracker's window. The equivalence contract,
// golden-tested in tests/test_snapshot.cpp:
//
//     run T  ≡  run T/2 → capture → destroy → rebuild → restore → run T/2
//
// byte-identical loads, statistics, and audit counters, at any pool size.
//
// The on-disk format is endian-stable (util/serial.hpp): an 8-byte magic,
// a format version, the payload length, and a payload checksum, followed
// by a fingerprint (node count, degree, self-loops, structure tag, an
// FNV hash of the adjacency, graph/balancer/workload names) and one
// length-prefixed state blob per component. The versions:
//
//   version | payload checksum              | admission queue blob
//   --------+-------------------------------+----------------------------
//   1       | FNV-1a, byte-serial           | one entry per request
//   2       | FNV-1a, byte-serial           | one entry per pending node
//   3       | block_checksum (serial.hpp)   | as version 2
//
// Version 3 changed the checksum alone: its payload bytes are version 2's.
// block_checksum reads 64 KiB blocks in four u64 lanes and folds their
// digests in block order, so capture() hashes the image on the engine's
// pool at memory speed and the value does not depend on the pool size.
// capture() writes version 3; the one parser reads all three, checking
// FNV-1a up to version 2 and the block checksum from version 3 on. The
// adjacency hash is cached on the Graph, so neither capture() nor
// restore() re-walks the topology after the first time.
//
// A snapshot *is* its image. capture() writes the header, the
// fingerprint and every component blob once, in place, into one buffer,
// then patches the lengths and the checksum; serialize() copies that
// buffer and write_file() writes it as is. capture() and deserialize()
// build their result through the same parser, which keeps the metadata
// and each blob's byte offset into the owned buffer (offsets, not spans,
// so a copied or moved snapshot stays valid).
//
// deserialize() and restore() refuse — with a clean serial_error, before
// mutating anything — on a bad magic, an unsupported version, a truncated
// buffer, a checksum mismatch, or a fingerprint that does not match the
// restore target. Component blobs are then applied in order; each
// component validates sizes and ranges before assigning, and each blob
// must be consumed exactly (expect_done), so a save/load asymmetry is an
// error, not a skew. The core blob must also describe a reachable state
// (a balanced ledger, statistics that match the loads, no negative load
// unless the balancer allows one). A blob refused after earlier ones were
// applied rolls the target back to the state it had before the call.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "util/serial.hpp"

namespace dlb {

class ShardedEngine;

class EngineSnapshot {
 public:
  /// Bump on any incompatible layout change; deserialize() refuses other
  /// versions rather than guessing at field offsets. Version 2 changed
  /// only the admission queue's blob (a per-node ring instead of a
  /// request list); that blob tells the two apart itself, so version-1
  /// images still restore. Version 3 changed only the payload checksum
  /// (see the table above).
  static constexpr std::uint32_t kFormatVersion = 3;
  static constexpr std::uint32_t kOldestReadableVersion = 1;

  /// The payload checksum of format `version`: FNV-1a up to version 2,
  /// block_checksum from version 3 on (on `pool` when one is given; the
  /// value is the same without).
  static std::uint64_t payload_checksum(std::uint32_t version,
                                        std::span<const std::uint8_t> payload,
                                        ThreadPool* pool = nullptr);

  /// Captures the full stepping state. Must be called between rounds
  /// (i.e. never from inside an observer); per-round transients — flow
  /// records, the next-load buffer, workload hotspots — are
  /// deliberately not part of the state, they are rebuilt by the next
  /// round. Pass the run's tracker to include its window; nullptr when
  /// the run has none.
  static EngineSnapshot capture(const Engine& engine,
                                const SteadyStateTracker* tracker = nullptr);

  /// Sharded capture: identical image format and contents. The core blob
  /// gathers the owned slices in shard order, so a k-shard snapshot is
  /// indistinguishable from (and interchangeable with) a flat one — the
  /// shard count is a runtime execution choice, not persisted state.
  static EngineSnapshot capture(const ShardedEngine& engine,
                                const SteadyStateTracker* tracker = nullptr);

  /// Restores into an engine built over the *same* graph, self-loop
  /// count, balancer scheme, and workload configuration as the captured
  /// one (verified via the fingerprint — names, sizes, structure tag,
  /// and the adjacency hash). On success the engine, its balancer, its
  /// workload, and the tracker continue exactly as the captured run
  /// would have. Throws serial_error (or a component's invariant_error)
  /// on any mismatch or unreachable state, and then leaves the target
  /// as it was. A tracker must be supplied iff the snapshot carries one.
  void restore(Engine& engine, SteadyStateTracker* tracker = nullptr) const;

  /// Restores into a sharded engine over the same run configuration, at
  /// *any* shard count — the image carries no trace of the one it was
  /// taken at. The flat load vector is scattered into the target's shard
  /// windows.
  void restore(ShardedEngine& engine,
               SteadyStateTracker* tracker = nullptr) const;

  /// A copy of the byte image: header (magic, version, length, checksum)
  /// + payload. An image read from an older-version file keeps its
  /// version.
  std::vector<std::uint8_t> serialize() const;

  /// Parses and fully validates a byte image (magic, version, length,
  /// checksum, payload framing). The result still needs restore()'s
  /// fingerprint check against a concrete engine.
  static EngineSnapshot deserialize(std::span<const std::uint8_t> bytes);

  /// Atomic checkpoint write: writes the image to `path + ".tmp"` and
  /// renames over `path`, so a crash mid-write can never clobber the
  /// previous good checkpoint. Throws serial_error on I/O failure. With
  /// telemetry armed, the fsync is observed in dlb_snapshot_fsync_seconds.
  void write_file(const std::string& path) const;
  /// Reads a checkpoint file (one sized read into the image buffer) and
  /// parses it as deserialize() does.
  static EngineSnapshot read_file(const std::string& path);

  // -- metadata (for service logs and status lines) --
  Step time() const noexcept { return time_; }
  NodeId num_nodes() const noexcept { return n_; }
  int degree() const noexcept { return d_; }
  const std::string& graph_name() const noexcept { return graph_name_; }
  const std::string& balancer_name() const noexcept { return balancer_name_; }
  /// Empty when the captured engine had no workload attached.
  const std::string& workload_name() const noexcept { return workload_name_; }
  bool has_tracker() const noexcept { return has_tracker_; }

  /// Fingerprint of the captured topology (FNV-1a over every
  /// neighbor(u, p) in port-table order, little-endian element bytes) —
  /// exposed so tests can pin and corrupt it.
  std::uint64_t adjacency_hash() const noexcept { return adjacency_hash_; }

 private:
  /// Where one length-prefixed component blob sits in image_.
  struct Blob {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  EngineSnapshot() = default;

  /// The one image parser: checks the header (magic, version, payload
  /// length and — when `verify_checksum` — the checksum), then reads the
  /// fingerprint and the blob offsets of the payload. Takes ownership of
  /// the bytes.
  static EngineSnapshot parse(ImageBytes image, bool verify_checksum);
  std::span<const std::uint8_t> blob(Blob b) const {
    return std::span<const std::uint8_t>(image_).subspan(b.offset, b.size);
  }

  /// The capture/restore logic is engine-shape-agnostic — both engines
  /// expose the same stepping-state surface (graph, self_loops, balancer,
  /// workload, time, save/load_core_state) — so one template serves the
  /// flat and the sharded substrate with byte-identical images.
  template <class EngineT>
  static EngineSnapshot capture_impl(const EngineT& engine,
                                     const SteadyStateTracker* tracker);
  template <class EngineT>
  void restore_impl(EngineT& engine, SteadyStateTracker* tracker) const;

  /// The framed image; every member below is parsed from it.
  ImageBytes image_;

  NodeId n_ = 0;
  int d_ = 0;
  int self_loops_ = 0;
  std::uint8_t structure_kind_ = 0;
  std::vector<NodeId> extents_;
  std::uint64_t adjacency_hash_ = 0;
  std::string graph_name_;
  std::string balancer_name_;
  std::string workload_name_;
  Step time_ = 0;
  bool has_tracker_ = false;

  Blob core_;
  Blob balancer_;
  Blob workload_;
  Blob tracker_;
};

}  // namespace dlb
