// ShardChannel: the transport seam of the sharded round engine.
//
// Everything that ever crosses a shard boundary — the flows routed over
// the edge cut after each decide — moves as raw bytes through this
// interface, so the round protocol in sharded_engine.cpp is
// transport-agnostic: the in-process ring of byte
// buffers below is the shards-as-threads transport, and a socket- or
// MPI-backed implementation drops in behind the same three calls without
// touching the engine. The interface is deliberately stream-shaped (post
// appends to a per-(sender, receiver, tag) byte stream; drain hands each
// sender's accumulated stream over once) because that is what a network
// transport can actually provide cheaply — message framing lives above
// this seam: every post the engine makes is one framing.hpp frame
// (checksummed header + payload), so a lossy transport's damage is
// detected and retried at drain time rather than trusted.
//
// Phase discipline (the engine enforces it with its fork/join barriers):
// within one round, every post() of a tag completes before any drain() of
// that tag begins. Under that contract the in-process channel needs no
// locks — a (from, to, tag) stream is written by exactly one shard during
// the post phase and read by exactly one shard during the drain phase.
//
// Determinism: drain() delivers sender streams in ascending sender order,
// and each stream preserves its post order. Receivers therefore see a
// schedule-independent byte sequence, which (together with the engine's
// commutative int64 flow adds) keeps a k-shard round byte-identical run
// to run at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/assertions.hpp"

namespace dlb {

/// What a posted byte stream carries. One tag per exchange per round, so
/// a transport can map tags onto independent flows (or MPI tags) without
/// inspecting payloads. The value is part of every frame header; tag
/// values lie below kShardTagCount (0 is unused).
enum class ShardTag : int {
  kFlows = 1,  ///< flows over the edge cut, posted after decide
};
inline constexpr int kShardTagCount = 2;

class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Number of shard endpoints this channel connects.
  virtual int shard_count() const = 0;

  /// Round barrier notification: the engine calls this once, serially,
  /// before the first post of round `t`. Transports that hold deferred
  /// state (a fault injector's delayed frames, a socket's send queue)
  /// release it here so it surfaces in round t's drains. Default: no-op.
  virtual void begin_round(std::int64_t t) { (void)t; }

  /// Discards every undelivered byte and any deferred transport state —
  /// the supervisor calls this before rolling an engine back to a
  /// checkpoint, so frames from the abandoned timeline never surface in
  /// the re-run. Default: no-op (override in stateful transports).
  virtual void reset() {}

  /// True when this transport can neither lose nor damage bytes (the
  /// in-process matrix). The engine skips re-post bookkeeping on a
  /// lossless channel and treats any frame damage as a bug instead of
  /// weather; a fault injector or real network returns false.
  virtual bool lossless() const { return true; }

  /// Appends `bytes` to the (from, to, tag) stream. `from == to` is legal;
  /// the bytes simply come back in the same round's drain. Only shard `from` may post on its
  /// own streams, and only during the tag's post phase.
  virtual void post(int from, int to, ShardTag tag,
                    std::span<const std::byte> bytes) = 0;

  /// Delivers every non-empty stream addressed to `to` under `tag` —
  /// ascending sender order, each stream's bytes in post order — then
  /// resets those streams for the next round. Only shard `to` may drain
  /// its own streams, and only during the tag's drain phase.
  virtual void drain(
      int to, ShardTag tag,
      const std::function<void(int from, std::span<const std::byte>)>&
          deliver) = 0;
};

/// Shards-as-threads transport: a k×k matrix of reusable byte buffers per
/// tag. post() memcpy-appends into the sender-owned cell, drain() hands
/// the cell's bytes over and clears it (capacity is kept, so steady-state
/// rounds allocate nothing). Lock-free by the phase discipline above.
class InProcessShardChannel final : public ShardChannel {
 public:
  explicit InProcessShardChannel(int shards) : shards_(shards) {
    DLB_REQUIRE(shards >= 1, "shard channel: need at least one shard");
    for (auto& plane : cells_) {
      plane.resize(static_cast<std::size_t>(shards) *
                   static_cast<std::size_t>(shards));
    }
  }

  int shard_count() const override { return shards_; }

  void reset() override {
    for (auto& plane : cells_) {
      for (auto& cell : plane) cell.clear();  // capacity kept, as in drain
    }
  }

  void post(int from, int to, ShardTag tag,
            std::span<const std::byte> bytes) override {
    std::vector<std::byte>& cell = at(from, to, tag);
    cell.insert(cell.end(), bytes.begin(), bytes.end());
  }

  void drain(int to, ShardTag tag,
             const std::function<void(int from, std::span<const std::byte>)>&
                 deliver) override {
    for (int from = 0; from < shards_; ++from) {
      std::vector<std::byte>& cell = at(from, to, tag);
      if (cell.empty()) continue;
      deliver(from, std::span<const std::byte>(cell.data(), cell.size()));
      cell.clear();  // keeps capacity — the next round reuses the buffer
    }
  }

  /// Total bytes of buffer capacity currently held across all streams —
  /// the transport's share of a sharded run's resident memory (reported
  /// next to the per-shard slice and staging numbers by the bench).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto& plane : cells_) {
      for (const auto& cell : plane) total += cell.capacity();
    }
    return total;
  }

 private:
  std::vector<std::byte>& at(int from, int to, ShardTag tag) {
    DLB_ASSERT(from >= 0 && from < shards_ && to >= 0 && to < shards_,
               "shard channel: endpoint out of range");
    return cells_[static_cast<std::size_t>(tag)]
                 [static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(to)];
  }

  int shards_;
  std::vector<std::vector<std::byte>> cells_[kShardTagCount];
};

}  // namespace dlb
