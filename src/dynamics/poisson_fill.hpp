// Internal to PoissonWorkload::fill (dynamics/workload.cpp): the zero-test
// kernels, one per instruction set, declared here so the tests can run
// each on the host beside delta(). Library code calls fill(), which picks
// one per call (see the dispatch rules in util/simd.hpp).
//
// Every kernel writes, for i in [0, out.size()), the draw of node
// first + i in round `keys`' round to out[i]: PoissonWorkload::delta's
// value, bit for bit. The vector kernels must only run where the host
// supports them (avx2: simd::enabled(); avx512: simd::avx512()); in a
// build without AVX2 bodies both are the scalar kernel.
#pragma once

#include <cstdint>
#include <span>

#include "core/load_vector.hpp"  // Load, Step
#include "dynamics/workload.hpp"  // kStreamNodeMul, kStreamRoundMul
#include "util/rng.hpp"

namespace dlb::poisson_fill {

/// stream_key(seed, u, t) with its node-independent part hoisted: the
/// seed's SplitMix step and t·C.
struct RoundKeys {
  RoundKeys(std::uint64_t seed, Step t)
      : s(seed + kSplitMixGamma),
        h(splitmix64_finalize(s)),
        tc(static_cast<std::uint64_t>(t) * kStreamRoundMul) {}

  std::uint64_t key(std::uint64_t u) const noexcept {
    const std::uint64_t a = (s ^ (u * kStreamNodeMul)) + kSplitMixGamma;
    const std::uint64_t b = (a ^ tc) + kSplitMixGamma;
    return h ^ splitmix64_finalize(a) ^ splitmix64_finalize(b);
  }

  std::uint64_t s;   ///< seed after its SplitMix step
  std::uint64_t h;   ///< the seed's mix
  std::uint64_t tc;  ///< t · kStreamRoundMul
};

/// Both Poisson draws of a node for two rates in the product regime
/// (thresholds `arrival_limit`, `departure_limit` = exp(−λ)). A
/// generator's first output reads state word 1 and its second
/// w0 ^ w1 ^ w2, so a node whose two first uniforms pass their bounds
/// draws 0 − 0 without the fourth word: a "fast" node. The others are
/// "slow" and run the full draw.
struct ZeroTest {
  ZeroTest(double arrival_limit, double departure_limit);

  double arrival_limit;
  double departure_limit;
  /// Largest 53-bit uniform numerator m with m·2^-53 <= the limit.
  std::uint64_t arrival_bound;
  std::uint64_t departure_bound;
};

void scalar(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
            std::span<Load> out);
/// Four nodes per AVX2 vector, the slow ones finished one at a time.
void avx2(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
          std::span<Load> out);
/// Eight nodes per AVX-512 vector, the slow ones finished eight at a
/// time as well.
void avx512(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
            std::span<Load> out);

}  // namespace dlb::poisson_fill
