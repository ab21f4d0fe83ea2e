// Epoch-stamped next-load accumulator: an O(1) logical zero-fill.
//
// The lazy scatter path adds token movements into an n-sized next-load
// array every step; zero-filling that array each round is an O(n) memset
// that pure kernel work never amortizes away. Instead, every slot carries
// a one-byte epoch stamp: begin_round() bumps the current epoch (making
// every slot logically zero without touching it), add() overwrites a
// stale slot and accumulates into a fresh one — branch-free, so the
// scatter loop stays tight and graph-order-agnostic — and finalize()
// zeroes the slots no kernel touched, which is how stale values from
// earlier rounds are guaranteed never to leak into the new load vector
// (unit-tested in test_engine.cpp). The stamps wrap every 255 rounds;
// begin_round() then re-zeroes them once, which amortizes to nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/load_vector.hpp"

namespace dlb {

class EpochAccumulator {
 public:
  /// Register-resident scatter view: raw pointers the hot loops keep in
  /// registers (an add() through the accumulator object would reload the
  /// vector data pointers after every byte store, since char stores may
  /// alias anything). Copy one per kernel invocation.
  class Scatter {
   public:
    explicit Scatter(EpochAccumulator& acc) noexcept
        : values_(acc.values_.data()), epoch_(acc.epoch_.data()),
          current_(acc.current_) {}

    /// next[i] += f against the current round's logical zeros.
    /// Branch-free: a stale slot is overwritten, a fresh one accumulated.
    void add(std::size_t i, Load f) const noexcept {
      const bool stale = epoch_[i] != current_;
      epoch_[i] = current_;
      values_[i] = (stale ? 0 : values_[i]) + f;
    }

    /// Raw storage access for vectorized *single-touch* kernels. A kernel
    /// that emits each slot's final value exactly once per round may write
    /// raw_values()[i] = f and raw_epoch()[i] = epoch_stamp() directly —
    /// byte-identical to add() on a slot untouched this round (stale is
    /// always true on first touch, so add() is exactly that overwrite).
    /// Multi-touch kernels must keep using add().
    Load* raw_values() const noexcept { return values_; }
    std::uint8_t* raw_epoch() const noexcept { return epoch_; }
    std::uint8_t epoch_stamp() const noexcept { return current_; }

   private:
    Load* values_;
    std::uint8_t* epoch_;
    std::uint8_t current_;
  };

  /// Sizes the accumulator to n slots, all zero and all fresh.
  void reset(std::size_t n) {
    values_.assign(n, 0);
    epoch_.assign(n, 0);
    current_ = 0;
  }

  std::size_t size() const noexcept { return values_.size(); }

  /// Starts a new round: every slot becomes logically zero in O(1)
  /// (amortized — one stamp re-zero per 255 rounds).
  void begin_round() noexcept {
    if (++current_ == 0) {
      // Stamp wrap: old stamps would alias the new epoch; re-zero them.
      std::fill(epoch_.begin(), epoch_.end(), std::uint8_t{0});
      current_ = 1;
    }
  }

  /// next[i] += f against the current round's logical zeros. Convenience
  /// for cold paths; hot kernels use a Scatter view instead.
  void add(std::size_t i, Load f) noexcept { Scatter(*this).add(i, f); }

  /// This round's value of slot i (0 if untouched). For tests/audits.
  Load value(std::size_t i) const noexcept {
    return epoch_[i] == current_ ? values_[i] : 0;
  }

  /// Materializes the round: zeroes every untouched slot so values() is
  /// the complete next-load vector. Block-reduced stamp scan (no
  /// per-element branch, vectorizes): well-formed kernels touch every
  /// node, so the per-slot fixup almost never runs.
  void finalize() noexcept {
    const std::uint8_t cur = current_;
    const std::size_t n = epoch_.size();
    constexpr std::size_t kBlock = 64;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      std::uint8_t diff = 0;
      for (std::size_t j = 0; j < kBlock; ++j) {
        diff |= static_cast<std::uint8_t>(epoch_[i + j] ^ cur);
      }
      if (diff != 0) {
        for (std::size_t j = i; j < i + kBlock; ++j) fix_slot(j, cur);
      }
    }
    for (; i < n; ++i) fix_slot(i, cur);
  }

  /// finalize() fused with the round's min/max statistics: the stale-slot
  /// fixup and the min/max reduction share one sweep over values_, so the
  /// engine's separate post-step stats pass over the (identical) new load
  /// vector disappears — one fewer full-vector pass per round.
  void finalize_stats(Load& min_out, Load& max_out) noexcept {
    const std::uint8_t cur = current_;
    const std::size_t n = epoch_.size();
    Load lo = std::numeric_limits<Load>::max();
    Load hi = std::numeric_limits<Load>::min();
    constexpr std::size_t kBlock = 64;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      std::uint8_t diff = 0;
      for (std::size_t j = 0; j < kBlock; ++j) {
        diff |= static_cast<std::uint8_t>(epoch_[i + j] ^ cur);
      }
      if (diff != 0) {
        for (std::size_t j = i; j < i + kBlock; ++j) fix_slot(j, cur);
      }
      for (std::size_t j = i; j < i + kBlock; ++j) {
        lo = std::min(lo, values_[j]);
        hi = std::max(hi, values_[j]);
      }
    }
    for (; i < n; ++i) {
      fix_slot(i, cur);
      lo = std::min(lo, values_[i]);
      hi = std::max(hi, values_[i]);
    }
    min_out = lo;
    max_out = hi;
  }

  /// The backing vector; valid as the round's next loads only after
  /// finalize(). Exposed so the engine can swap it with the load vector.
  LoadVector& values() noexcept { return values_; }

 private:
  void fix_slot(std::size_t i, std::uint8_t cur) noexcept {
    if (epoch_[i] != cur) {
      values_[i] = 0;
      epoch_[i] = cur;
    }
  }

  LoadVector values_;
  std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> epoch_;
  std::uint8_t current_ = 0;
};

}  // namespace dlb
