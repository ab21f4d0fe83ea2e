#include "balancers/continuous_mimic.hpp"

#include <cmath>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/simd.hpp"

namespace dlb {

#ifdef DLB_SIMD_AVX2
namespace {

// d == 2 arithmetic core. Same shape as BoundedError's: deinterleave the
// [u*2 + p] per-edge state into one vector per port, run the
// accumulate/round/delta chain on 4 nodes at once, reinterleave and store.
// All operations are exact IEEE identities, so w_cum, f_cum and the flows
// are byte-identical to the scalar loop. The guard checks the *updated*
// cumulative flow |w'| < kExactMax (NLT_UQ also catches NaN) before any
// state is written, so an out-of-range block falls back to the scalar
// body cleanly. Only the per-round delta is vectorized — the continuous
// trajectory itself (advance_continuous) stays serial scalar code, since
// its multiply-accumulate chain must not be re-associated or contracted.
template <class Topo>
void scatter_d2_avx2(const Topo& topo, NodeId first, NodeId last,
                     std::span<const Load> loads, FlowSink& sink,
                     const double* y, double* w_cum, Load* f_cum,
                     int d_plus) {
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  const Load* xs = loads.data();
  const __m256d vdp = _mm256_set1_pd(static_cast<double>(d_plus));
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d lim = _mm256_set1_pd(static_cast<double>(simd::kExactMax));

  const auto scalar_node = [&](NodeId u) {
    const Load x = xs[static_cast<std::size_t>(u)];
    const double per_edge = y[static_cast<std::size_t>(u)] / d_plus;
    Load sent = 0;
    for (int p = 0; p < 2; ++p) {
      const std::size_t e = static_cast<std::size_t>(u) * 2 +
                            static_cast<std::size_t>(p);
      w_cum[e] += per_edge;
      const Load target = static_cast<Load>(std::llround(w_cum[e]));
      const Load f = target - f_cum[e];
      f_cum[e] = target;
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
    const __m256d per = _mm256_div_pd(_mm256_loadu_pd(y + u), vdp);
    double* wp = w_cum + static_cast<std::size_t>(u) * 2;
    __m256d w0;
    __m256d w1;
    simd::deinterleave2_pd(_mm256_loadu_pd(wp), _mm256_loadu_pd(wp + 4), w0,
                           w1);
    w0 = _mm256_add_pd(w0, per);
    w1 = _mm256_add_pd(w1, per);
    const __m256d bad0 =
        _mm256_cmp_pd(_mm256_and_pd(w0, abs_mask), lim, _CMP_NLT_UQ);
    const __m256d bad1 =
        _mm256_cmp_pd(_mm256_and_pd(w1, abs_mask), lim, _CMP_NLT_UQ);
    if (_mm256_movemask_pd(_mm256_or_pd(bad0, bad1)) != 0) {
      for (int i = 0; i < simd::kLanes; ++i) scalar_node(u + i);
      continue;
    }
    const __m256d t0 = simd::round_half_away(w0);
    const __m256d t1 = simd::round_half_away(w1);
    __m256d a;
    __m256d b;
    simd::interleave2_pd(w0, w1, a, b);
    _mm256_storeu_pd(wp, a);
    _mm256_storeu_pd(wp + 4, b);
    const __m256i ft0 = simd::to_int64(t0);
    const __m256i ft1 = simd::to_int64(t1);
    Load* fp = f_cum + static_cast<std::size_t>(u) * 2;
    __m256i fc0;
    __m256i fc1;
    simd::deinterleave2_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp + 4)), fc0,
        fc1);
    const __m256i f0 = _mm256_sub_epi64(ft0, fc0);
    const __m256i f1 = _mm256_sub_epi64(ft1, fc1);
    __m256i ia;
    __m256i ib;
    simd::interleave2_epi64(ft0, ft1, ia, ib);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(fp), ia);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(fp + 4), ib);
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + u));
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

void ContinuousMimic::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "ContinuousMimic: negative self-loop count");
  g_ = &graph;
  d_ = graph.degree();
  d_loops_ = d_loops;
  d_plus_ = d_ + d_loops;
  current_step_ = -1;
  initialized_ = false;
  seen_ = 0;
  y_.assign(static_cast<std::size_t>(graph.num_nodes()), 0.0);
  w_cum_.assign(static_cast<std::size_t>(graph.num_nodes()) * d_, 0.0);
  f_cum_.assign(static_cast<std::size_t>(graph.num_nodes()) * d_, 0);
}

void ContinuousMimic::advance_continuous() {
  // y <- P·y on the balancing graph (d° self-loops). The gather loop
  // rides the same implicit-topology dispatch as the discrete kernels:
  // structured graphs compute their neighbours here too.
  std::vector<double> next(y_.size());
  const double inv = 1.0 / d_plus_;
  with_topology(*g_, [&](const auto& topo) {
    const int d = topo.degree();
    auto cur = topo.cursor(0);
    for (NodeId v = 0; v < g_->num_nodes(); ++v, cur.advance()) {
      double acc = static_cast<double>(d_loops_) * inv *
                   y_[static_cast<std::size_t>(v)];
      for (int p = 0; p < d; ++p) {
        acc += inv * y_[static_cast<std::size_t>(cur.neighbor(p))];
      }
      next[static_cast<std::size_t>(v)] = acc;
    }
  });
  y_.swap(next);
}

void ContinuousMimic::decide(NodeId u, Load load, Step t,
                             std::span<Load> flows) {
  if (t > current_step_) {
    // First decide() of a new step: advance the internal continuous
    // simulation (no-op before the very first step, when y is captured
    // from the engine's initial loads below).
    if (initialized_) advance_continuous();
    current_step_ = t;
  }
  if (!initialized_) {
    // Step 0: discrete and continuous loads coincide; capture them (one
    // decide() call per node, in any order).
    y_[static_cast<std::size_t>(u)] = static_cast<double>(load);
    if (++seen_ == g_->num_nodes()) initialized_ = true;
  }

  // Continuous flow this step over every original edge of u is y(u)/d⁺;
  // send the difference between the rounded cumulative continuous flow
  // and what has been sent so far, keeping |F_t(e) − W_t(e)| <= 1/2.
  const double per_edge = y_[static_cast<std::size_t>(u)] / d_plus_;
  for (int p = 0; p < d_; ++p) {
    const std::size_t e = static_cast<std::size_t>(u) * d_ +
                          static_cast<std::size_t>(p);
    w_cum_[e] += per_edge;
    const Load target = static_cast<Load>(std::llround(w_cum_[e]));
    flows[static_cast<std::size_t>(p)] = target - f_cum_[e];
    f_cum_[e] = target;
  }
  // Self-loop ports carry nothing explicitly; the rest of the load stays
  // as the node's remainder (which may be negative — cf. Table 1's NL).
  for (int p = d_; p < d_plus_; ++p) flows[static_cast<std::size_t>(p)] = 0;
}

void ContinuousMimic::prepare_round(std::span<const Load> loads, Step t,
                                    FlowSink& /*sink*/) {
  if (t > current_step_) {
    if (initialized_) advance_continuous();
    current_step_ = t;
  }
  if (!initialized_) {
    for (NodeId u = 0; u < g_->num_nodes(); ++u) {
      y_[static_cast<std::size_t>(u)] =
          static_cast<double>(loads[static_cast<std::size_t>(u)]);
    }
    seen_ = g_->num_nodes();
    initialized_ = true;
  }
}

void ContinuousMimic::decide_range(NodeId first, NodeId last,
                                   std::span<const Load> loads, Step /*t*/,
                                   FlowSink& sink) {
  if (sink.row_mode()) {
    const int d_plus = sink.ports();
    for (NodeId u = first; u < last; ++u) {
      const double per_edge = y_[static_cast<std::size_t>(u)] / d_plus_;
      std::span<Load> row = sink.row(u);
      for (int p = 0; p < d_; ++p) {
        const std::size_t e = static_cast<std::size_t>(u) * d_ +
                              static_cast<std::size_t>(p);
        w_cum_[e] += per_edge;
        const Load target = static_cast<Load>(std::llround(w_cum_[e]));
        row[static_cast<std::size_t>(p)] = target - f_cum_[e];
        f_cum_[e] = target;
      }
      for (int p = d_; p < d_plus; ++p) row[static_cast<std::size_t>(p)] = 0;
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void ContinuousMimic::scatter_range(const Topo& topo, NodeId first,
                                    NodeId last, std::span<const Load> loads,
                                    FlowSink& sink) {
  const int d = topo.degree();
#ifdef DLB_SIMD_AVX2
  if (d == 2 && d_ == 2 && simd::enabled() &&
      last - first >= 2 * simd::kLanes) {
    scatter_d2_avx2(topo, first, last, loads, sink, y_.data(), w_cum_.data(),
                    f_cum_.data(), d_plus_);
    return;
  }
#endif
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    const double per_edge = y_[static_cast<std::size_t>(u)] / d_plus_;
    Load sent = 0;
    for (int p = 0; p < d; ++p) {
      const std::size_t e = static_cast<std::size_t>(u) * d_ +
                            static_cast<std::size_t>(p);
      w_cum_[e] += per_edge;
      const Load target = static_cast<Load>(std::llround(w_cum_[e]));
      const Load f = target - f_cum_[e];
      f_cum_[e] = target;
      next[static_cast<std::size_t>(cur.neighbor(p))] += f;
      sent += f;
    }
    // Self-loops carry nothing; the (possibly negative) rest stays local.
    next[static_cast<std::size_t>(u)] += x - sent;
  }
}


void ContinuousMimic::save_state(StateWriter& w) const {
  w.i64(current_step_);
  w.b(initialized_);
  w.i32(seen_);
  w.vec_f64(y_);
  w.vec_f64(w_cum_);
  w.vec_i64(f_cum_);
}

void ContinuousMimic::load_state(StateReader& r) {
  const Step current_step = r.i64();
  const bool initialized = r.b();
  const NodeId seen = r.i32();
  std::vector<double> y = r.vec_f64();
  std::vector<double> w_cum = r.vec_f64();
  std::vector<Load> f_cum = r.vec_i64();
  DLB_REQUIRE(y.size() == y_.size() && w_cum.size() == w_cum_.size() &&
                  f_cum.size() == f_cum_.size(),
              "ContinuousMimic: state size mismatch");
  DLB_REQUIRE(seen >= 0 && seen <= static_cast<NodeId>(y.size()),
              "ContinuousMimic: bad initialization progress");
  // Invariants of every valid run: a continuous load is a convex
  // combination of int64 loads, and decide() leaves each edge's discrete
  // flow at the rounded continuous one (|F − W| <= 1/2). A state outside
  // them would send arbitrary flows.
  constexpr double kInt64Range = 0x1p63;
  for (const double v : y) {
    DLB_REQUIRE(std::fabs(v) < kInt64Range,
                "ContinuousMimic: continuous load out of range");
  }
  for (std::size_t e = 0; e < w_cum.size(); ++e) {
    DLB_REQUIRE(std::fabs(w_cum[e]) < kInt64Range &&
                    std::llround(w_cum[e]) == f_cum[e],
                "ContinuousMimic: discrete flow is not the rounded "
                "continuous flow");
  }
  current_step_ = current_step;
  initialized_ = initialized;
  seen_ = seen;
  y_ = std::move(y);
  w_cum_ = std::move(w_cum);
  f_cum_ = std::move(f_cum);
}

}  // namespace dlb
