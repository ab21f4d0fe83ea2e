#include "dynamics/workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "dynamics/poisson_fill.hpp"
#include "util/assertions.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Knuth's product-of-uniforms draw with threshold `limit` = exp(−λ);
/// valid for λ <= kPoissonProductCap (the limit underflows for λ beyond
/// ~745, and the method degenerates long before that).
Load poisson_product(Rng& rng, double limit) {
  double p = 1.0;
  Load k = 0;
  do {
    ++k;
    p *= rng.uniform_real();
  } while (p > limit);
  return k - 1;
}

/// Acklam's rational approximation to the standard normal inverse CDF
/// (absolute error < 1.15e-9 over (0, 1)). Uses only log and sqrt, so a
/// draw is as platform-deterministic as the product method's exp.
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

PoissonSampler::PoissonSampler(double lambda) : lambda_(lambda) {
  DLB_REQUIRE(lambda >= 0.0, "Poisson rate: negative");
  // Rates past the product method's range take the additive-split and
  // normal-approximation regimes (high-traffic service scenarios); only
  // the Load ledger bounds them.
  DLB_REQUIRE(lambda <= 1e15, "Poisson rate: overflows the load ledger");
  if (lambda == 0.0) return;  // chunks_ == 0 and λ == 0: draws are 0
  if (lambda <= kPoissonProductCap) {
    chunks_ = 1;
    limit_ = std::exp(-lambda);
  } else if (lambda <= kPoissonSplitCap) {
    // Poisson is additive: the sum of m independent Poisson(λ/m) draws
    // is exactly Poisson(λ), and λ/m sits inside the product method's
    // range. Exact distribution, O(λ) uniforms total.
    chunks_ = static_cast<int>(std::ceil(lambda / kPoissonProductCap));
    limit_ = std::exp(-(lambda / chunks_));
  } else {
    sqrt_lambda_ = std::sqrt(lambda);
  }
}

Load PoissonSampler::operator()(Rng& rng) const {
  if (chunks_ > 0) {
    Load sum = 0;
    for (int i = 0; i < chunks_; ++i) sum += poisson_product(rng, limit_);
    return sum;
  }
  if (lambda_ == 0.0) return 0;
  // Normal approximation via one inverse-CDF uniform. The clamp keeps
  // the (probability 2^-53) u == 0 draw out of log(0).
  const double u =
      std::min(std::max(rng.uniform_real(), 1e-300), 1.0 - 1e-16);
  const double z = inverse_normal_cdf(u);
  const double k = std::round(lambda_ + sqrt_lambda_ * z);
  return k <= 0.0 ? 0 : static_cast<Load>(k);
}

Load poisson_draw(Rng& rng, double lambda) {
  return PoissonSampler(lambda)(rng);
}

void WorkloadProcess::prepare(Step /*t*/, std::span<const Load> /*loads*/) {}

void WorkloadProcess::prepare_round(Step t, std::span<const Load> loads) {
  prepare(t, loads);
}

void WorkloadProcess::apply_dense(Step t, std::span<Load> loads,
                                  ThreadPool* pool, WorkloadTally& tally) {
  // Per-chunk tallies merged under a lock, once per chunk: the merge is
  // order-independent, so thread count never shows.
  std::mutex mu;
  const auto body = [&](std::int64_t first, std::int64_t last) {
    WorkloadTally part;
    part.apply_filled(*this, t, static_cast<NodeId>(first),
                      loads.subspan(static_cast<std::size_t>(first),
                                    static_cast<std::size_t>(last - first)));
    const std::lock_guard<std::mutex> lock(mu);
    tally.merge(part);
  };
  const auto n = static_cast<std::int64_t>(loads.size());
  if (pool != nullptr && parallel_generate_safe()) {
    pool->for_ranges(n, body);
  } else {
    body(0, n);
  }
}

void WorkloadProcess::fill(Step t, NodeId first, std::span<Load> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = delta(first + static_cast<NodeId>(i), t);
  }
}

void WorkloadTally::apply_filled(WorkloadProcess& w, Step t, NodeId first,
                                 std::span<Load> x) {
  constexpr std::size_t kChunk = 1024;  // 8 KiB of deltas on the stack
  std::array<Load, kChunk> deltas;
  for (std::size_t lo = 0; lo < x.size(); lo += kChunk) {
    const std::size_t len = std::min(kChunk, x.size() - lo);
    const NodeId base = first + static_cast<NodeId>(lo);
    w.fill(t, base, std::span<Load>(deltas.data(), len));
    for (std::size_t i = 0; i < len; ++i) {
      apply(base + static_cast<NodeId>(i), x[lo + i], deltas[i]);
      if (overflow_node >= 0) return;
    }
  }
}

void WorkloadTally::merge(const WorkloadTally& o) noexcept {
  ledger_overflow |= o.ledger_overflow;
  ledger_overflow |= __builtin_add_overflow(injected, o.injected, &injected);
  ledger_overflow |= __builtin_add_overflow(consumed, o.consumed, &consumed);
  if (o.overflow_node >= 0 &&
      (overflow_node < 0 || o.overflow_node < overflow_node)) {
    overflow_node = o.overflow_node;
  }
}

void WorkloadProcess::save_state(StateWriter& /*w*/) const {}
void WorkloadProcess::load_state(StateReader& /*r*/) {}

namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

// ------------------------------------------------------------- counter --

CounterWorkload::CounterWorkload(Params params) : params_(params) {
  DLB_REQUIRE(params_.arrival_period >= 0 && params_.departure_period >= 0,
              "CounterWorkload: negative period");
  DLB_REQUIRE(params_.arrival_amount >= 0 && params_.departure_amount >= 0,
              "CounterWorkload: negative amount");
}

std::string CounterWorkload::name() const {
  return "counter(in=" + std::to_string(params_.arrival_amount) + "/" +
         std::to_string(params_.arrival_period) +
         ",out=" + std::to_string(params_.departure_amount) + "/" +
         std::to_string(params_.departure_period) + ")";
}

void CounterWorkload::reset(NodeId /*n*/, std::uint64_t /*seed*/) {}

void CounterWorkload::fill(Step t, NodeId first, std::span<Load> out) {
  const Step phase = t + static_cast<Step>(first);
  const Step ap = params_.arrival_period;
  const Step dp = params_.departure_period;
  // Each node's phase within both periods, stepped instead of divided. A
  // zero period leaves its amount at 0 (its phase never matters).
  const Load in = ap > 0 ? params_.arrival_amount : 0;
  const Load gone = dp > 0 ? params_.departure_amount : 0;
  Step a = ap > 0 ? phase % ap : 0;
  Step d = dp > 0 ? phase % dp : 0;
  for (Load& x : out) {
    x = (a == 0 ? in : 0) - (d == dp - 1 ? gone : 0);
    if (++a == ap) a = 0;
    if (++d == dp) d = 0;
  }
}

Load CounterWorkload::delta(NodeId u, Step t) {
  const Step phase = t + static_cast<Step>(u);
  Load d = 0;
  if (params_.arrival_period > 0 && phase % params_.arrival_period == 0) {
    d += params_.arrival_amount;
  }
  if (params_.departure_period > 0 &&
      phase % params_.departure_period == params_.departure_period - 1) {
    d -= params_.departure_amount;
  }
  return d;
}

// ------------------------------------------------------------- poisson --

PoissonWorkload::PoissonWorkload(Params params)
    : params_(params),
      arrivals_(params.arrival_rate),
      departures_(params.departure_rate) {}

std::string PoissonWorkload::name() const {
  return "poisson(in=" + fmt_rate(params_.arrival_rate) +
         ",out=" + fmt_rate(params_.departure_rate) + ")";
}

void PoissonWorkload::reset(NodeId /*n*/, std::uint64_t seed) {
  seed_ = seed;
}

Load PoissonWorkload::delta(NodeId u, Step t) {
  Rng rng(stream_key(seed_, static_cast<std::uint64_t>(u),
                     static_cast<std::uint64_t>(t)));
  const Load arrivals = arrivals_(rng);
  const Load departures = departures_(rng);
  return arrivals - departures;
}

namespace poisson_fill {

namespace {

/// Word i of the generator Rng(key) seeds.
constexpr std::uint64_t rng_word(std::uint64_t key, std::uint64_t i) noexcept {
  return splitmix64_finalize(key + (i + 1) * kSplitMixGamma);
}

/// xoshiro256**'s output for state word 1 = w: rotl(w·5, 7)·9.
constexpr std::uint64_t xoshiro_out(std::uint64_t w) noexcept {
  const std::uint64_t x = w * 5;
  return ((x << 7) | (x >> 57)) * 9;
}

/// Largest 53-bit uniform numerator m with m·2^-53 <= limit: the first
/// product-method uniform ends the draw at 0 iff m <= this. Exact, as
/// limit·2^53 is.
std::uint64_t zero_draw_bound(double limit) noexcept {
  return static_cast<std::uint64_t>(std::ldexp(limit, 53));
}

/// The full draw of a slow node from its generator words 0–2.
Load finish(const ZeroTest& z, std::uint64_t key, std::uint64_t w0,
            std::uint64_t w1, std::uint64_t w2) {
  Rng rng;
  rng.set_state({w0, w1, w2, rng_word(key, 3)});
  const Load in = poisson_product(rng, z.arrival_limit);
  return in - poisson_product(rng, z.departure_limit);
}

}  // namespace

ZeroTest::ZeroTest(double arrival_limit, double departure_limit)
    : arrival_limit(arrival_limit),
      departure_limit(departure_limit),
      arrival_bound(zero_draw_bound(arrival_limit)),
      departure_bound(zero_draw_bound(departure_limit)) {}

void scalar(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
            std::span<Load> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t key = keys.key(first + i);
    const std::uint64_t w0 = rng_word(key, 0);
    const std::uint64_t w1 = rng_word(key, 1);
    const std::uint64_t w2 = rng_word(key, 2);
    out[i] = (xoshiro_out(w1) >> 11) <= z.arrival_bound &&
                     (xoshiro_out(w0 ^ w1 ^ w2) >> 11) <= z.departure_bound
                 ? 0
                 : finish(z, key, w0, w1, w2);
  }
}

#ifdef DLB_SIMD_AVX2

namespace {

inline __m256i splitmix64_finalize4(__m256i z) noexcept {
  z = simd::mul_u64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                    kSplitMixMul1);
  z = simd::mul_u64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                    kSplitMixMul2);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// xoshiro_out(w) >> 11 per lane.
inline __m256i uniform_numerator4(__m256i w) noexcept {
  const __m256i x = _mm256_add_epi64(_mm256_slli_epi64(w, 2), w);
  const __m256i r =
      _mm256_or_si256(_mm256_slli_epi64(x, 7), _mm256_srli_epi64(x, 57));
  return _mm256_srli_epi64(_mm256_add_epi64(_mm256_slli_epi64(r, 3), r), 11);
}

}  // namespace

/// Both bounds are below 2^53 + 1, so the signed compares are exact. The
/// vector loop keeps each batch's words and appends its slow lanes to a
/// list without branching; a second loop then finishes only those, so
/// the vector loop never stalls on a mispredicted lane test. The last
/// size mod 4 nodes take the scalar kernel.
void avx2(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
          std::span<Load> out) {
  constexpr std::size_t kBatch = 256;
  alignas(32) std::uint64_t words[4][kBatch];  // key, w0, w1, w2
  std::uint32_t slow[kBatch];
  const __m256i gamma = _mm256_set1_epi64x(
      static_cast<long long>(kSplitMixGamma));
  const __m256i s = _mm256_set1_epi64x(static_cast<long long>(keys.s));
  const __m256i h = _mm256_set1_epi64x(static_cast<long long>(keys.h));
  const __m256i tc = _mm256_set1_epi64x(static_cast<long long>(keys.tc));
  const __m256i in_bound =
      _mm256_set1_epi64x(static_cast<long long>(z.arrival_bound));
  const __m256i out_bound =
      _mm256_set1_epi64x(static_cast<long long>(z.departure_bound));
  // u · kStreamNodeMul for the four lanes, advanced by 4 · kStreamNodeMul
  // per vector.
  const auto node_mul = [](std::uint64_t u) {
    return static_cast<long long>(u * kStreamNodeMul);
  };
  __m256i un = _mm256_set_epi64x(node_mul(first + 3), node_mul(first + 2),
                                 node_mul(first + 1), node_mul(first));
  const __m256i un_step = _mm256_set1_epi64x(node_mul(4));
  const auto store = [](std::uint64_t* to, __m256i v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(to), v);
  };
  const std::size_t whole = out.size() & ~std::size_t{3};
  for (std::size_t base = 0; base < whole; base += kBatch) {
    const std::size_t len = std::min(kBatch, whole - base);
    std::size_t count = 0;
    for (std::size_t j = 0; j < len; j += 4) {
      const __m256i a = _mm256_add_epi64(_mm256_xor_si256(s, un), gamma);
      const __m256i b = _mm256_add_epi64(_mm256_xor_si256(a, tc), gamma);
      const __m256i key =
          _mm256_xor_si256(h, _mm256_xor_si256(splitmix64_finalize4(a),
                                               splitmix64_finalize4(b)));
      const __m256i k1 = _mm256_add_epi64(key, gamma);
      const __m256i k2 = _mm256_add_epi64(k1, gamma);
      const __m256i w0 = splitmix64_finalize4(k1);
      const __m256i w1 = splitmix64_finalize4(k2);
      const __m256i w2 = splitmix64_finalize4(_mm256_add_epi64(k2, gamma));
      const __m256i second = _mm256_xor_si256(w0, _mm256_xor_si256(w1, w2));
      const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(
          _mm256_cmpgt_epi64(uniform_numerator4(w1), in_bound),
          _mm256_cmpgt_epi64(uniform_numerator4(second), out_bound))));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + base + j),
                          _mm256_setzero_si256());
      store(words[0] + j, key);
      store(words[1] + j, w0);
      store(words[2] + j, w1);
      store(words[3] + j, w2);
      for (std::uint32_t l = 0; l < 4; ++l) {
        slow[count] = static_cast<std::uint32_t>(j) + l;
        count += static_cast<std::size_t>((mask >> l) & 1);
      }
      un = _mm256_add_epi64(un, un_step);
    }
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t j = slow[k];
      out[base + j] =
          finish(z, words[0][j], words[1][j], words[2][j], words[3][j]);
    }
  }
  scalar(keys, z, first + whole, out.subspan(whole));
}

// The AVX-512 body is compiled for AVX-512F+DQ per function, never per
// file: a file built with -mavx512* may emit the header inline functions
// it calls (Rng::next, splitmix64_finalize, std:: helpers) in EVEX form,
// and the linker may keep those copies for every caller, which would
// fault on an AVX2-only host. Every helper it inlines carries the same
// attribute; scripts/check_isa.py checks that no other function of the
// benchmark binary holds an AVX-512 instruction.
#define DLB_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))

// GCC 12's AVX-512 shift and rotate intrinsics pass a self-initialised
// _mm512_undefined_epi32() as their unused merge source, which
// -Wmaybe-uninitialized reports at every inlined use (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

DLB_TARGET_AVX512 inline __m512i splat(std::uint64_t v) noexcept {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// The first n lanes (all eight for n >= 8).
inline __mmask8 first_lanes(std::size_t n) noexcept {
  return n >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1U << n) - 1);
}

DLB_TARGET_AVX512 inline __m512i splitmix64_finalize8(__m512i z) noexcept {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         splat(kSplitMixMul1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         splat(kSplitMixMul2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// xoshiro_out(w) per lane.
DLB_TARGET_AVX512 inline __m512i xoshiro_out8(__m512i w) noexcept {
  const __m512i r =
      _mm512_rol_epi64(_mm512_add_epi64(_mm512_slli_epi64(w, 2), w), 7);
  return _mm512_add_epi64(_mm512_slli_epi64(r, 3), r);
}

/// The lanes of `m`: poisson_product(rng, limit) per lane over the
/// generators in s0–s3, which advance in those lanes only, by as many
/// outputs as each lane's draw reads.
DLB_TARGET_AVX512 inline __m512i poisson_product8(__mmask8 m, __m512i& s0,
                                                  __m512i& s1, __m512i& s2,
                                                  __m512i& s3,
                                                  __m512d limit) noexcept {
  const __m512d scale = _mm512_set1_pd(0x1.0p-53);
  __m512d p = _mm512_set1_pd(1.0);
  __m512i k = splat(~std::uint64_t{0});  // −1: k counts the uniforms
  while (m != 0) {
    // Rng::next and uniform_real, in the lanes still drawing.
    const __m512i r = xoshiro_out8(s1);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_mask_xor_epi64(s2, m, s2, s0);
    s3 = _mm512_mask_xor_epi64(s3, m, s3, s1);
    s1 = _mm512_mask_xor_epi64(s1, m, s1, s2);
    s0 = _mm512_mask_xor_epi64(s0, m, s0, s3);
    s2 = _mm512_mask_xor_epi64(s2, m, s2, t);
    s3 = _mm512_mask_rol_epi64(s3, m, s3, 45);
    const __m512d u =
        _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), scale);
    p = _mm512_mask_mul_pd(p, m, p, u);
    k = _mm512_mask_add_epi64(k, m, k, splat(1));
    m = _mm512_mask_cmp_pd_mask(m, p, limit, _CMP_GT_OQ);
  }
  return k;
}

}  // namespace

/// The vector loop keeps nothing of a fast lane. It compresses each slow
/// lane's key, words 0–2 and index onto five lists, without branching;
/// the second loop then finishes those eight at a time: word 3 from one
/// vector SplitMix, then the arrivals' and the departures' product draws
/// on a masked xoshiro256** per lane, scattered back to `out`. A tail
/// under eight nodes runs as one masked vector. Both bounds are below
/// 2^53 + 1, so the unsigned compares against the 53-bit numerators are
/// exact.
DLB_TARGET_AVX512 void avx512(const RoundKeys& keys, const ZeroTest& z,
                              std::uint64_t first, std::span<Load> out) {
  constexpr std::size_t kBatch = 512;
  // A compress stores a whole vector at the list's end; that end is at
  // most j, the batch offset, so the store stays inside the list.
  alignas(64) std::uint64_t slow[5][kBatch];  // key, w0, w1, w2, index
  const __m512i gamma = splat(kSplitMixGamma);
  const __m512i s = splat(keys.s);
  const __m512i h = splat(keys.h);
  const __m512i tc = splat(keys.tc);
  const __m512i in_bound = splat(z.arrival_bound);
  const __m512i out_bound = splat(z.departure_bound);
  const __m512d in_limit = _mm512_set1_pd(z.arrival_limit);
  const __m512d out_limit = _mm512_set1_pd(z.departure_limit);
  const __m512i lanes = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  // u · kStreamNodeMul for the eight lanes, advanced by 8 · kStreamNodeMul
  // per vector.
  __m512i un = _mm512_mullo_epi64(_mm512_add_epi64(splat(first), lanes),
                                  splat(kStreamNodeMul));
  const __m512i un_step = splat(8 * kStreamNodeMul);
  for (std::size_t base = 0; base < out.size(); base += kBatch) {
    const std::size_t len = std::min(kBatch, out.size() - base);
    Load* const to = out.data() + base;
    std::size_t count = 0;
    __m512i index = lanes;
    for (std::size_t j = 0; j < len; j += 8) {
      const __mmask8 live = first_lanes(len - j);
      const __m512i a = _mm512_add_epi64(_mm512_xor_si512(s, un), gamma);
      const __m512i b = _mm512_add_epi64(_mm512_xor_si512(a, tc), gamma);
      const __m512i key =
          _mm512_xor_si512(h, _mm512_xor_si512(splitmix64_finalize8(a),
                                               splitmix64_finalize8(b)));
      const __m512i k1 = _mm512_add_epi64(key, gamma);
      const __m512i k2 = _mm512_add_epi64(k1, gamma);
      const __m512i w0 = splitmix64_finalize8(k1);
      const __m512i w1 = splitmix64_finalize8(k2);
      const __m512i w2 = splitmix64_finalize8(_mm512_add_epi64(k2, gamma));
      const __m512i second = _mm512_xor_si512(w0, _mm512_xor_si512(w1, w2));
      const __mmask8 m =
          _mm512_mask_cmpgt_epu64_mask(
              live, _mm512_srli_epi64(xoshiro_out8(w1), 11), in_bound) |
          _mm512_mask_cmpgt_epu64_mask(
              live, _mm512_srli_epi64(xoshiro_out8(second), 11), out_bound);
      _mm512_mask_storeu_epi64(to + j, live, _mm512_setzero_si512());
      const __m512i lists[5] = {key, w0, w1, w2, index};
      for (int l = 0; l < 5; ++l) {
        _mm512_storeu_si512(slow[l] + count,
                            _mm512_maskz_compress_epi64(m, lists[l]));
      }
      count += static_cast<std::size_t>(__builtin_popcount(m));
      un = _mm512_add_epi64(un, un_step);
      index = _mm512_add_epi64(index, splat(8));
    }
    for (std::size_t k = 0; k < count; k += 8) {
      const __mmask8 m = first_lanes(count - k);
      const __m512i key = _mm512_load_si512(slow[0] + k);
      __m512i s0 = _mm512_load_si512(slow[1] + k);
      __m512i s1 = _mm512_load_si512(slow[2] + k);
      __m512i s2 = _mm512_load_si512(slow[3] + k);
      __m512i s3 = splitmix64_finalize8(
          _mm512_add_epi64(key, splat(4 * kSplitMixGamma)));
      const __m512i in = poisson_product8(m, s0, s1, s2, s3, in_limit);
      const __m512i gone = poisson_product8(m, s0, s1, s2, s3, out_limit);
      _mm512_mask_i64scatter_epi64(to, m, _mm512_load_si512(slow[4] + k),
                                   _mm512_sub_epi64(in, gone), 8);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#undef DLB_TARGET_AVX512

#else

void avx2(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
          std::span<Load> out) {
  scalar(keys, z, first, out);
}
void avx512(const RoundKeys& keys, const ZeroTest& z, std::uint64_t first,
            std::span<Load> out) {
  scalar(keys, z, first, out);
}

#endif  // DLB_SIMD_AVX2

}  // namespace poisson_fill

void PoissonWorkload::fill(Step t, NodeId first, std::span<Load> out) {
  const poisson_fill::RoundKeys keys(seed_, t);
  const auto u0 = static_cast<std::uint64_t>(first);
  // At λ = 0 a sampler draws no uniform, so the departures' first uniform
  // would be the generator's first output: the zero test needs both rates
  // in the product regime.
  if (!arrivals_.single_product() || !departures_.single_product()) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      Rng rng(keys.key(u0 + i));
      const Load in = arrivals_(rng);
      out[i] = in - departures_(rng);
    }
    return;
  }
  const poisson_fill::ZeroTest z(arrivals_.limit(), departures_.limit());
  if (simd::avx512()) {
    poisson_fill::avx512(keys, z, u0, out);
  } else if (simd::enabled()) {
    poisson_fill::avx2(keys, z, u0, out);
  } else {
    poisson_fill::scalar(keys, z, u0, out);
  }
}

void PoissonWorkload::save_state(StateWriter& w) const { w.u64(seed_); }
void PoissonWorkload::load_state(StateReader& r) { seed_ = r.u64(); }

// --------------------------------------------------------------- burst --

BurstWorkload::BurstWorkload(Params params) : params_(params) {
  DLB_REQUIRE(params_.period >= 1, "BurstWorkload: period must be >= 1");
  DLB_REQUIRE(params_.burst >= 0, "BurstWorkload: negative burst");
  DLB_REQUIRE(params_.drain_period >= 0 && params_.drain_amount >= 0,
              "BurstWorkload: negative drain");
}

std::string BurstWorkload::name() const {
  std::string s = "burst(" + std::to_string(params_.burst) + "/" +
                  std::to_string(params_.period);
  if (params_.drain_period > 0 && params_.drain_amount > 0) {
    s += ",drain=" + std::to_string(params_.drain_amount) + "/" +
         std::to_string(params_.drain_period);
  }
  return s + ")";
}

void BurstWorkload::reset(NodeId n, std::uint64_t seed) {
  DLB_REQUIRE(n > 0, "BurstWorkload: node count must be positive");
  seed_ = seed;
  n_ = n;
  hotspot_ = -1;
  dense_round_ = false;
  affected_.clear();
}

void BurstWorkload::prepare(Step t, std::span<const Load> /*loads*/) {
  DLB_REQUIRE(n_ > 0, "BurstWorkload: reset() must run before stepping");
  if (t % params_.period == 0 && params_.burst > 0) {
    // One counter-stream draw per burst epoch; the hotspot sequence is a
    // pure function of (seed, t / period).
    hotspot_ = static_cast<NodeId>(
        stream_key(seed_, 0x6275727374ULL,
                   static_cast<std::uint64_t>(t / params_.period)) %
        static_cast<std::uint64_t>(n_));
  } else {
    hotspot_ = -1;
  }
  // A drain round touches every node — only burst-only rounds are sparse.
  dense_round_ = params_.drain_period > 0 && params_.drain_amount > 0 &&
                 t % params_.drain_period == 0;
  affected_.clear();
  if (!dense_round_ && hotspot_ >= 0) affected_.push_back(hotspot_);
}

const std::vector<NodeId>* BurstWorkload::affected_nodes() const {
  return dense_round_ ? nullptr : &affected_;
}

void BurstWorkload::save_state(StateWriter& w) const { w.u64(seed_); }
void BurstWorkload::load_state(StateReader& r) { seed_ = r.u64(); }

Load BurstWorkload::delta(NodeId u, Step t) {
  Load d = 0;
  if (u == hotspot_) d += params_.burst;
  if (params_.drain_period > 0 && t % params_.drain_period == 0) {
    d -= params_.drain_amount;
  }
  return d;
}

void BurstWorkload::fill(Step t, NodeId first, std::span<Load> out) {
  const bool drain = params_.drain_period > 0 && t % params_.drain_period == 0;
  std::fill(out.begin(), out.end(), drain ? -params_.drain_amount : 0);
  if (hotspot_ >= first &&
      static_cast<std::size_t>(hotspot_ - first) < out.size()) {
    out[static_cast<std::size_t>(hotspot_ - first)] += params_.burst;
  }
}

// ----------------------------------------------------------- adversary --

AdversarialInjector::AdversarialInjector(Params params) : params_(params) {
  DLB_REQUIRE(params_.amount >= 0, "AdversarialInjector: negative amount");
  DLB_REQUIRE(params_.period >= 1, "AdversarialInjector: period must be >= 1");
}

std::string AdversarialInjector::name() const {
  std::string s = "adversary(" + std::to_string(params_.amount) + "/" +
                  std::to_string(params_.period);
  if (params_.drain_min) s += ",drain-min";
  return s + ")";
}

void AdversarialInjector::reset(NodeId /*n*/, std::uint64_t /*seed*/) {
  target_max_ = -1;
  target_min_ = -1;
  affected_.clear();
}

void AdversarialInjector::prepare(Step t, std::span<const Load> loads) {
  if (t % params_.period != 0) {
    target_max_ = -1;
    target_min_ = -1;
    affected_.clear();
    return;
  }
  // Deterministic scan: lowest index wins ties, so the target sequence is
  // independent of thread count (the scan itself runs serially).
  NodeId arg_max = 0;
  NodeId arg_min = 0;
  for (NodeId u = 1; u < static_cast<NodeId>(loads.size()); ++u) {
    if (loads[static_cast<std::size_t>(u)] >
        loads[static_cast<std::size_t>(arg_max)]) {
      arg_max = u;
    }
    if (loads[static_cast<std::size_t>(u)] <
        loads[static_cast<std::size_t>(arg_min)]) {
      arg_min = u;
    }
  }
  target_max_ = arg_max;
  // On a perfectly flat vector argmax == argmin and the ±amount pair
  // would cancel into a permanent no-op; skip the drain for that round
  // so the injection still breaks the balance.
  target_min_ =
      params_.drain_min && arg_min != arg_max ? arg_min : NodeId{-1};
  affected_.clear();
  if (target_max_ >= 0) affected_.push_back(target_max_);
  if (target_min_ >= 0) affected_.push_back(target_min_);
}

const std::vector<NodeId>* AdversarialInjector::affected_nodes() const {
  return &affected_;
}

Load AdversarialInjector::delta(NodeId u, Step /*t*/) {
  Load d = 0;
  if (u == target_max_) d += params_.amount;
  if (u == target_min_) d -= params_.amount;
  return d;
}

}  // namespace dlb
