// Integer division helpers with mathematician's (floor) semantics.
//
// C++ integer division truncates toward zero, which disagrees with the
// paper's ⌊x/d⁺⌋ / ⌈x/d⁺⌉ / [x/d⁺] for negative x. Negative loads do occur
// for the randomized-rounding baseline of [18], so all balancers use these
// helpers instead of raw '/' and '%'.
#pragma once

#include <cstdint>

#include "util/assertions.hpp"

namespace dlb {

/// ⌊a / b⌋ for b > 0.
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  DLB_ASSERT(b > 0, "floor_div: divisor must be positive");
  const std::int64_t q = a / b;
  return (a % b != 0 && (a < 0)) ? q - 1 : q;
}

/// ⌈a / b⌉ for b > 0.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  DLB_ASSERT(b > 0, "ceil_div: divisor must be positive");
  const std::int64_t q = a / b;
  return (a % b != 0 && (a > 0)) ? q + 1 : q;
}

/// a mod b in [0, b) for b > 0 (true mathematical modulus).
constexpr std::int64_t floor_mod(std::int64_t a, std::int64_t b) {
  DLB_ASSERT(b > 0, "floor_mod: divisor must be positive");
  const std::int64_t r = a % b;
  return r < 0 ? r + b : r;
}

/// [a / b]: rounding to the nearest integer, ties rounded up.
/// This is the paper's [x/d⁺] used by SEND([x/d⁺]).
constexpr std::int64_t round_nearest_div(std::int64_t a, std::int64_t b) {
  DLB_ASSERT(b > 0, "round_nearest_div: divisor must be positive");
  return floor_div(2 * a + b, 2 * b);
}

/// Quotient/remainder against a fixed positive divisor, for non-negative
/// dividends (the hot kernels' x >= 0 regime, where floor and truncating
/// division agree). Power-of-two divisors — the common d⁺ = 2d of the
/// theorems on cycles, tori, and hypercubes — reduce to shift/mask, which
/// is what makes the batched kernels cheap: a hardware 64-bit division
/// per node per step would otherwise dominate the whole round.
class NonNegDiv {
 public:
  NonNegDiv() = default;
  explicit NonNegDiv(std::int64_t divisor) : d_(divisor), shift_(-1) {
    DLB_REQUIRE(divisor > 0, "NonNegDiv: divisor must be positive");
    if ((divisor & (divisor - 1)) == 0) {
      shift_ = 0;
      while ((std::int64_t{1} << shift_) < divisor) ++shift_;
    }
  }

  std::int64_t divisor() const noexcept { return d_; }

  /// ⌊x / divisor⌋ for x >= 0.
  std::int64_t quot(std::int64_t x) const noexcept {
    return shift_ >= 0 ? (x >> shift_) : (x / d_);
  }

  /// x mod divisor for x >= 0.
  std::int64_t rem(std::int64_t x) const noexcept {
    return shift_ >= 0 ? (x & (d_ - 1)) : (x % d_);
  }

  /// True when the divisor is a power of two — the gate for the SIMD
  /// kernels, whose vector division is a lane shift by pow2_shift().
  bool pow2() const noexcept { return shift_ >= 0; }

  /// log2(divisor); only meaningful when pow2().
  int pow2_shift() const noexcept { return shift_; }

 private:
  std::int64_t d_ = 1;
  int shift_ = 0;  // -1 when the divisor is not a power of two
};

/// ⌊x / d⌋ for 32-bit x by one 64×64→128 multiply (Granlund–Montgomery
/// round-up method): m = ⌈2^(32+ℓ) / d⌉ with ℓ = ⌈log₂ d⌉ satisfies
/// m·d − 2^(32+ℓ) ≤ 2^ℓ, which makes (m·x) >> (32+ℓ) exact for every
/// x < 2^32. The torus trait uses this for its per-dimension coordinate
/// extraction and the fairness auditor for its per-node ⌊x/d⁺⌋ — a
/// hardware division per port or per node would eat either loop.
class FastDivU32 {
 public:
  FastDivU32() = default;  ///< divisor 1 (quot(x) == x)
  explicit FastDivU32(std::uint32_t divisor) {
    DLB_REQUIRE(divisor >= 1, "FastDivU32: divisor must be positive");
    int l = 0;
    while ((std::uint64_t{1} << l) < divisor) ++l;
    shift_ = 32 + l;
    mul_ = static_cast<std::uint64_t>(
        ((static_cast<unsigned __int128>(1) << shift_) + divisor - 1) /
        divisor);
  }

  std::uint32_t quot(std::uint32_t x) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(mul_) * x) >> shift_);
  }

 private:
  std::uint64_t mul_ = 1;
  int shift_ = 0;
};

/// x mod b against a fixed divisor b >= 1, exact for every 64-bit x and
/// free of hardware division: a mask when b is a power of two, otherwise
/// Lemire's fastmod through the 128-bit reciprocal M = ⌊(2¹²⁸ − 1)/b⌋ + 1
/// (Lemire, Kaser & Kurz 2019: 128 fractional bits cover a 64-bit
/// dividend and a 64-bit divisor). The bounded draws of Rng take it where
/// one bound serves many draws.
class FastModU64 {
 public:
  FastModU64() = default;  ///< divisor 1 (rem(x) == 0)
  explicit FastModU64(std::uint64_t divisor) : d_(divisor) {
    DLB_REQUIRE(divisor >= 1, "FastModU64: divisor must be positive");
    pow2_ = (divisor & (divisor - 1)) == 0;
    if (!pow2_) m_ = ~static_cast<unsigned __int128>(0) / divisor + 1;
  }

  std::uint64_t divisor() const noexcept { return d_; }

  std::uint64_t rem(std::uint64_t x) const noexcept {
    if (pow2_) return x & (d_ - 1);
    // The fraction M·x mod 2¹²⁸, times b, shifted down 128 bits: the high
    // word of a 128×64-bit product, summed from its two 64×64 halves.
    const unsigned __int128 frac = m_ * x;
    const unsigned __int128 lo =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(frac)) *
         d_) >> 64;
    const unsigned __int128 hi = (frac >> 64) * d_;
    return static_cast<std::uint64_t>((lo + hi) >> 64);
  }

 private:
  unsigned __int128 m_ = 0;
  std::uint64_t d_ = 1;
  bool pow2_ = true;
};

}  // namespace dlb
