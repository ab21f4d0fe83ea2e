#include "balancers/bounded_error.hpp"

#include <algorithm>
#include <cmath>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/simd.hpp"

namespace dlb {

#ifdef DLB_SIMD_AVX2
namespace {

// d == 2 arithmetic core: the per-edge state layout [u*2 + p] interleaves
// the two carries of each node, so one (de)interleave turns two vector
// loads into a port-0 and a port-1 carry vector and the whole
// share/round/residual chain runs on 4 nodes at once. Every operation is
// an exact IEEE identity on |x| <= kExactMax (division and addition are
// correctly rounded in both paths; round_half_away ≡ llround; the
// magic-number conversions are exact in range), so the carries and flows
// are byte-identical to the scalar loop. Blocks with any lane outside the
// exact range fall back to the scalar body — including the scatter adds,
// which run per node in the scalar order either way.
template <class Topo>
void scatter_d2_avx2(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink,
                     double* carry, int d_plus) {
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  const Load* xs = loads.data();
  const __m256d vdp = _mm256_set1_pd(static_cast<double>(d_plus));

  const auto scalar_node = [&](NodeId u) {
    const Load x = xs[static_cast<std::size_t>(u)];
    const double share = static_cast<double>(x) / d_plus;
    Load sent = 0;
    for (int p = 0; p < 2; ++p) {
      double& c = carry[static_cast<std::size_t>(u) * 2 +
                        static_cast<std::size_t>(p)];
      const double desired = share + c;
      const auto f = static_cast<Load>(std::llround(desired));
      c = desired - static_cast<double>(f);
      next[static_cast<std::size_t>(cur.neighbor(p))] += f;
      sent += f;
    }
    next[static_cast<std::size_t>(u)] += x - sent;
    cur.advance();
  };

  NodeId u = first;
  alignas(32) Load f0s[simd::kLanes];
  alignas(32) Load f1s[simd::kLanes];
  alignas(32) Load keep[simd::kLanes];
  for (; u + simd::kLanes <= last; u += simd::kLanes) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + u));
    if (simd::any_outside_exact_range(vx)) {
      for (int i = 0; i < simd::kLanes; ++i) scalar_node(u + i);
      continue;
    }
    // |share| <= kExactMax/2 and |carry| <= 1/2 (the scheme's invariant),
    // so desired and its rounding stay inside the exact-conversion range.
    const __m256d share = _mm256_div_pd(simd::to_double(vx), vdp);
    double* cp = carry + static_cast<std::size_t>(u) * 2;
    __m256d c0;
    __m256d c1;
    simd::deinterleave2_pd(_mm256_loadu_pd(cp), _mm256_loadu_pd(cp + 4), c0,
                           c1);
    const __m256d des0 = _mm256_add_pd(share, c0);
    const __m256d des1 = _mm256_add_pd(share, c1);
    const __m256d r0 = simd::round_half_away(des0);
    const __m256d r1 = simd::round_half_away(des1);
    __m256d a;
    __m256d b;
    simd::interleave2_pd(_mm256_sub_pd(des0, r0), _mm256_sub_pd(des1, r1), a,
                         b);
    _mm256_storeu_pd(cp, a);
    _mm256_storeu_pd(cp + 4, b);
    const __m256i f0 = simd::to_int64(r0);
    const __m256i f1 = simd::to_int64(r1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(f0s), f0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(f1s), f1);
    _mm256_store_si256(reinterpret_cast<__m256i*>(keep),
                       _mm256_sub_epi64(vx, _mm256_add_epi64(f0, f1)));
    for (int i = 0; i < simd::kLanes; ++i) {
      next[static_cast<std::size_t>(cur.neighbor(0))] += f0s[i];
      next[static_cast<std::size_t>(cur.neighbor(1))] += f1s[i];
      next[static_cast<std::size_t>(u + i)] += keep[i];
      cur.advance();
    }
  }
  for (; u < last; ++u) scalar_node(u);
}

}  // namespace
#endif  // DLB_SIMD_AVX2

void BoundedError::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "BoundedError: negative self-loop count");
  d_ = graph.degree();
  d_plus_ = d_ + d_loops;
  carry_.assign(static_cast<std::size_t>(graph.num_nodes()) * d_, 0.0);
}

void BoundedError::decide(NodeId u, Load load, Step /*t*/,
                          std::span<Load> flows) {
  const double share = static_cast<double>(load) / d_plus_;
  for (int p = 0; p < d_; ++p) {
    double& c = carry_[static_cast<std::size_t>(u) * d_ +
                       static_cast<std::size_t>(p)];
    const double desired = share + c;
    const auto f = static_cast<Load>(std::llround(desired));
    c = desired - static_cast<double>(f);
    flows[static_cast<std::size_t>(p)] = f;
  }
  // Self-loops: everything not sent stays as the remainder.
  for (int p = d_; p < d_plus_; ++p) flows[static_cast<std::size_t>(p)] = 0;
}

void BoundedError::decide_range(NodeId first, NodeId last,
                                std::span<const Load> loads, Step /*t*/,
                                FlowSink& sink) {
  if (sink.row_mode()) {
    const int d_plus = sink.ports();
    for (NodeId u = first; u < last; ++u) {
      const double share =
          static_cast<double>(loads[static_cast<std::size_t>(u)]) / d_plus_;
      std::span<Load> row = sink.row(u);
      for (int p = 0; p < d_; ++p) {
        double& c = carry_[static_cast<std::size_t>(u) * d_ +
                           static_cast<std::size_t>(p)];
        const double desired = share + c;
        const auto f = static_cast<Load>(std::llround(desired));
        c = desired - static_cast<double>(f);
        row[static_cast<std::size_t>(p)] = f;
      }
      // Self-loops send nothing; everything unsent is the remainder.
      for (int p = d_; p < d_plus; ++p) row[static_cast<std::size_t>(p)] = 0;
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void BoundedError::scatter_range(const Topo& topo, NodeId first, NodeId last,
                                 std::span<const Load> loads, FlowSink& sink) {
  const int d = topo.degree();
#ifdef DLB_SIMD_AVX2
  if (d == 2 && d_ == 2 && simd::enabled() &&
      last - first >= 2 * simd::kLanes) {
    scatter_d2_avx2(topo, first, last, loads, sink, carry_.data(), d_plus_);
    return;
  }
#endif
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    const double share = static_cast<double>(x) / d_plus_;
    Load sent = 0;
    for (int p = 0; p < d; ++p) {
      double& c = carry_[static_cast<std::size_t>(u) * d_ +
                         static_cast<std::size_t>(p)];
      const double desired = share + c;
      const auto f = static_cast<Load>(std::llround(desired));
      c = desired - static_cast<double>(f);
      next[static_cast<std::size_t>(cur.neighbor(p))] += f;
      sent += f;
    }
    // Self-loop ports send nothing; the rest (possibly negative) stays.
    next[static_cast<std::size_t>(u)] += x - sent;
  }
}

double BoundedError::max_abs_carry() const {
  double worst = 0.0;
  for (double c : carry_) worst = std::max(worst, std::abs(c));
  return worst;
}


void BoundedError::save_state(StateWriter& w) const { w.vec_f64(carry_); }

void BoundedError::load_state(StateReader& r) {
  std::vector<double> carry = r.vec_f64();
  if (carry.size() != carry_.size()) {
    throw serial_error("BoundedError state: carry size mismatch");
  }
  // The bounded-error invariant itself: llround keeps every residual in
  // [-1/2, 1/2] (both endpoints reachable via exact .5 halfway cases), so
  // anything outside cannot have come from a valid run of this scheme.
  for (double c : carry) {
    if (!(c >= -0.5 && c <= 0.5)) {
      throw serial_error("BoundedError state: carry out of range");
    }
  }
  carry_ = std::move(carry);
}

}  // namespace dlb
