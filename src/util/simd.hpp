// SIMD dispatch layer: compile-time feature detection, a process-wide
// runtime switch, and the exact-arithmetic AVX2 helpers the vectorized
// round kernels share.
//
// Contract: a SIMD kernel must be *golden-equal* to its scalar fallback —
// byte-identical load trajectories and balancer state on every
// lane-count/tail combination (tests/test_simd_golden.cpp sweeps
// vector-width multiples, primes, and width±1 sizes on every structured
// family). That rules out "fast math": every helper below is an exact
// IEEE-754 / two's-complement identity, valid on a documented input range,
// and kernels guard each block against that range (falling back to the
// scalar path for the block) instead of assuming it.
//
// Dispatch rules:
//   * compiled support — the AVX2 kernel bodies only exist when the
//     library is built with -mavx2 (CMake option DLB_SIMD, default ON when
//     the compiler supports the flag). Without it, dlb::simd::compiled()
//     is false and every kernel is the scalar path, zero overhead.
//   * runtime switch — even in an AVX2 build, kernels consult
//     dlb::simd::enabled() once per range (never per node). It starts as
//     compiled() && cpu-supports-avx2 && !getenv(DLB_NO_SIMD), so
//     DLB_NO_SIMD=1 forces the scalar fallback on any host, and an AVX2
//     binary degrades gracefully on a pre-AVX2 CPU instead of faulting.
//     Tests flip the switch per engine step via set_enabled() to run the
//     two paths in lockstep.
//   * AVX-512 level — a kernel with a 512-bit body (the Poisson zero
//     test, dynamics/workload.cpp) picks it once per call when
//     dlb::simd::avx512() holds: enabled() and a CPU that reports
//     AVX-512F and AVX-512DQ. The body is compiled for those extensions
//     by a function attribute, never by a per-file -mavx512* flag, so
//     nothing else in the binary carries an AVX-512 instruction
//     (scripts/check_isa.py). The switch covers it too: DLB_NO_SIMD=1 or
//     set_enabled(false) runs the scalar path, and an AVX-512 host runs
//     the AVX2 body only when a test calls it directly.
//   * shape gates — each kernel additionally checks its own algebraic
//     preconditions (power-of-two d⁺ for the shift-division stencils,
//     d == 2 for the carry-deinterleave cores) and per-block value ranges
//     (|x| < 2^51 for the int64↔double conversions).
#pragma once

#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>

#include <cstring>
#define DLB_SIMD_AVX2 1
#endif

namespace dlb::simd {

/// int64 / double lanes per AVX2 vector — the blocking factor of every
/// vectorized kernel (and the width the golden tests sweep around).
inline constexpr int kLanes = 4;

/// True when the library was built with AVX2 kernel bodies (-mavx2).
bool compiled() noexcept;

/// True when AVX2 kernels are compiled in, the CPU supports them, and
/// they have not been disabled (DLB_NO_SIMD / set_enabled(false)).
/// Kernels read this once per range invocation.
bool enabled() noexcept;

/// True when enabled() holds and the CPU reports AVX-512F and AVX-512DQ:
/// the level of the kernels that also have a 512-bit body, read once
/// per call like enabled().
bool avx512() noexcept;

/// Runtime override, primarily for the golden tests (scalar ≡ SIMD in one
/// process) and benchmarks. Enabling is ignored when compiled() is false
/// or the CPU lacks AVX2.
void set_enabled(bool on) noexcept;

#ifdef DLB_SIMD_AVX2

/// |x| <= kExactMax is the range on which the int64↔double magic-number
/// conversions below are exact identities (2^51 − 1; conversions route
/// through a 2^52-biased mantissa, which costs one bit of headroom).
inline constexpr std::int64_t kExactMax = (std::int64_t{1} << 51) - 1;

namespace detail {
// 1.5 * 2^52: adding it to any |v| < 2^51 lands the sum in [2^52, 2^53),
// where doubles step by exactly 1 — the integer is sitting verbatim in
// the low mantissa bits, biased by this constant's own bit pattern.
inline __m256d magic_pd() noexcept { return _mm256_set1_pd(0x1.8p52); }
inline __m256i magic_epi64() noexcept {
  return _mm256_set1_epi64x(0x4338000000000000LL);
}
}  // namespace detail

/// Exact int64 → double for every lane with |x| <= kExactMax.
inline __m256d to_double(__m256i x) noexcept {
  const __m256i biased = _mm256_add_epi64(x, detail::magic_epi64());
  return _mm256_sub_pd(_mm256_castsi256_pd(biased), detail::magic_pd());
}

/// Exact double → int64 for integral lanes with |v| <= kExactMax.
inline __m256i to_int64(__m256d v) noexcept {
  const __m256d biased = _mm256_add_pd(v, detail::magic_pd());
  return _mm256_sub_epi64(_mm256_castpd_si256(biased),
                          detail::magic_epi64());
}

/// Rounds each lane to the nearest integer with halves away from zero —
/// exactly std::llround's result (as a double) for |x| < 2^51. trunc and
/// x − trunc(x) are exact, so the two half-threshold compares see the
/// true fractional part, never a rounded one (the classic x + 0.5
/// shortcut breaks on 0.49999999999999994).
inline __m256d round_half_away(__m256d x) noexcept {
  const __m256d t = _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(x, t);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d up =
      _mm256_and_pd(_mm256_cmp_pd(frac, half, _CMP_GE_OQ), one);
  const __m256d down =
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_sub_pd(_mm256_setzero_pd(),
                                                      half),
                                  _CMP_LE_OQ),
                    one);
  return _mm256_sub_pd(_mm256_add_pd(t, up), down);
}

/// Lane-wise x · c mod 2^64 for a constant c. AVX2 multiplies only 32×32
/// → 64 bits, so the product is lo·lo + ((hi·lo + lo·hi) << 32): three
/// _mm256_mul_epu32, exact in two's complement (the hi·hi term falls off
/// the top). The counter-stream hashes (SplitMix64) use it.
inline __m256i mul_u64(__m256i x, std::uint64_t c) noexcept {
  const __m256i c_lo =
      _mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
  const __m256i lo = _mm256_mul_epu32(x, c_lo);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
      _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// True if any int64 lane is negative.
inline bool any_negative(__m256i x) noexcept {
  return _mm256_movemask_pd(_mm256_castsi256_pd(x)) != 0;
}

/// True if any int64 lane lies outside [−kExactMax, kExactMax] — the
/// per-block guard before to_double / to_int64.
inline bool any_outside_exact_range(__m256i x) noexcept {
  const __m256i hi = _mm256_cmpgt_epi64(x, _mm256_set1_epi64x(kExactMax));
  const __m256i lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(-kExactMax), x);
  return _mm256_movemask_epi8(_mm256_or_si256(hi, lo)) != 0;
}

/// Lane-wise int64 min/max (AVX2 has no native epi64 min — compare+blend).
inline __m256i min_epi64(__m256i a, __m256i b) noexcept {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}
inline __m256i max_epi64(__m256i a, __m256i b) noexcept {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

/// Horizontal min / max of the four int64 lanes.
inline std::int64_t reduce_min(__m256i v) noexcept {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  const std::int64_t a = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
  const std::int64_t b = lanes[2] < lanes[3] ? lanes[2] : lanes[3];
  return a < b ? a : b;
}
inline std::int64_t reduce_max(__m256i v) noexcept {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  const std::int64_t a = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
  const std::int64_t b = lanes[2] > lanes[3] ? lanes[2] : lanes[3];
  return a > b ? a : b;
}
/// Horizontal sum of the four int64 lanes, wrapping mod 2^64 as the lane
/// adds do.
inline std::uint64_t reduce_add(__m256i v) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// De-interleaves four (even, odd) pairs — memory order
/// [e0 o0 e1 o1 | e2 o2 e3 o3] in `a`/`b` — into evens [e0 e1 e2 e3] and
/// odds [o0 o1 o2 o3]. The d == 2 carry cores use this to turn the
/// per-edge state layout [u*2 + p] into one vector per port. unpack*_pd
/// works within 128-bit halves, so a cross-lane permute restores node
/// order.
inline void deinterleave2_pd(__m256d a, __m256d b, __m256d& even,
                             __m256d& odd) noexcept {
  even = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b),
                               _MM_SHUFFLE(3, 1, 2, 0));
  odd = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b),
                              _MM_SHUFFLE(3, 1, 2, 0));
}

/// Inverse of deinterleave2_pd: rebuilds the interleaved pair layout.
inline void interleave2_pd(__m256d even, __m256d odd, __m256d& a,
                           __m256d& b) noexcept {
  const __m256d pe = _mm256_permute4x64_pd(even, _MM_SHUFFLE(3, 1, 2, 0));
  const __m256d po = _mm256_permute4x64_pd(odd, _MM_SHUFFLE(3, 1, 2, 0));
  a = _mm256_unpacklo_pd(pe, po);
  b = _mm256_unpackhi_pd(pe, po);
}

/// Integer flavors of the pair (de)interleave (identical lane moves).
inline void deinterleave2_epi64(__m256i a, __m256i b, __m256i& even,
                                __m256i& odd) noexcept {
  __m256d e;
  __m256d o;
  deinterleave2_pd(_mm256_castsi256_pd(a), _mm256_castsi256_pd(b), e, o);
  even = _mm256_castpd_si256(e);
  odd = _mm256_castpd_si256(o);
}
inline void interleave2_epi64(__m256i even, __m256i odd, __m256i& a,
                              __m256i& b) noexcept {
  __m256d ai;
  __m256d bi;
  interleave2_pd(_mm256_castsi256_pd(even), _mm256_castsi256_pd(odd), ai, bi);
  a = _mm256_castpd_si256(ai);
  b = _mm256_castpd_si256(bi);
}

#endif  // DLB_SIMD_AVX2

}  // namespace dlb::simd
