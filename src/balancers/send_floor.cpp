#include "balancers/send_floor.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/simd.hpp"

namespace dlb {

namespace {

// Torus row-gather core: sweeps nodes [first, last) of `xs` row by row —
// the row blocking, the per-segment scalar/AVX2 bodies, the emit order
// and the min/max/Σ fold. Σ wraps (unsigned adds), as LoadScan's does.
template <class Emit, class EmitBlock>
void torus_gather_rows(const TorusTopology& topo, const NonNegDiv& div,
                       NodeId first, NodeId last, const Load* xs, Load& lo,
                       Load& hi, std::uint64_t& sum, Emit&& emit,
                       [[maybe_unused]] EmitBlock&& emit_block) {
  const int d = topo.degree();
  auto cur = topo.cursor(first);
  NodeId u = first;  // the cursor's node
  std::array<NodeId, 2 * TorusTopology::kMaxDims> off{};

  // Scalar next load of node v, whose port-p neighbor is nbr(p).
  const auto gather = [&](NodeId v, auto&& nbr) {
    const Load x = xs[static_cast<std::size_t>(v)];
    DLB_REQUIRE(x >= 0, "SendFloor cannot handle negative load");
    Load acc = x - div.quot(x) * d +
               div.quot(xs[static_cast<std::size_t>(nbr(0))]) +
               div.quot(xs[static_cast<std::size_t>(nbr(1))]);
    for (int p = 2; p < d; p += 2) {
      acc += div.quot(xs[static_cast<std::size_t>(nbr(p))]) +
             div.quot(xs[static_cast<std::size_t>(nbr(p + 1))]);
    }
    emit(static_cast<std::size_t>(v), acc);
    lo = acc < lo ? acc : lo;
    hi = acc > hi ? acc : hi;
    sum += static_cast<std::uint64_t>(acc);
  };
  // Scalar sweep of the cursor from u to b.
  const auto sweep_to = [&](NodeId b) {
    for (; u < b; ++u, cur.advance()) {
      gather(u, [&](int p) { return cur.neighbor(p); });
    }
  };

  while (u < last) {
    // The segment's first node and the row's last go through the cursor;
    // between them no dimension-0 step wraps, so every port is one fixed
    // offset.
    const NodeId row_end = cur.row_end();
    const NodeId seg_end = std::min(last, row_end);
    sweep_to(u + 1);
    for (int p = 0; p < d; ++p) {
      off[static_cast<std::size_t>(p)] = cur.neighbor(p) - u;
    }
    const NodeId b = std::min(seg_end, row_end - 1);
    NodeId v = u;
#ifdef DLB_SIMD_AVX2
    if (div.pow2() && simd::enabled()) {
      const __m128i sh = _mm_cvtsi32_si128(div.pow2_shift());
      __m256i vmin = _mm256_set1_epi64x(std::numeric_limits<Load>::max());
      __m256i vmax = _mm256_set1_epi64x(std::numeric_limits<Load>::min());
      __m256i vsum = _mm256_setzero_si256();
      for (; v + simd::kLanes <= b; v += simd::kLanes) {
        const __m256i vx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + v));
        // A negative load: the scalar loop below throws at its node.
        if (simd::any_negative(vx)) break;
        const __m256i q = _mm256_srl_epi64(vx, sh);
        // q·d as an add chain: exact int64, no 64-bit vector multiply
        // needed (d is small — 2r).
        __m256i qd = q;
        for (int i = 1; i < d; ++i) qd = _mm256_add_epi64(qd, q);
        __m256i acc = _mm256_sub_epi64(vx, qd);
        for (int p = 0; p < d; p += 2) {  // the ± pair of each dimension
          const __m256i up = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(
                  xs + v + off[static_cast<std::size_t>(p)]));
          const __m256i down = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(
                  xs + v + off[static_cast<std::size_t>(p + 1)]));
          acc = _mm256_add_epi64(acc,
                                 _mm256_add_epi64(_mm256_srl_epi64(up, sh),
                                                  _mm256_srl_epi64(down, sh)));
        }
        emit_block(static_cast<std::size_t>(v), acc);
        vmin = simd::min_epi64(vmin, acc);
        vmax = simd::max_epi64(vmax, acc);
        vsum = _mm256_add_epi64(vsum, acc);
      }
      const Load vlo = simd::reduce_min(vmin);
      const Load vhi = simd::reduce_max(vmax);
      lo = vlo < lo ? vlo : lo;
      hi = vhi > hi ? vhi : hi;
      sum += simd::reduce_add(vsum);
    }
#endif
    for (; v < b; ++v) {
      gather(v, [&](int p) { return v + off[static_cast<std::size_t>(p)]; });
    }
    cur.seek(v);
    u = v;
    sweep_to(seg_end);
  }
}

}  // namespace

void SendFloor::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "SendFloor: negative self-loop count");
  div_ = NonNegDiv(graph.degree() + d_loops);
}

void SendFloor::decide(NodeId /*u*/, Load load, Step /*t*/,
                       std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "SendFloor cannot handle negative load");
  std::fill(flows.begin(), flows.end(), div_.quot(load));
  // Excess e(u) = load − d⁺·share stays as the remainder.
}

void SendFloor::decide_range(NodeId first, NodeId last,
                             std::span<const Load> loads, Step /*t*/,
                             FlowSink& sink) {
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "SendFloor cannot handle negative load");
      std::span<Load> row = sink.row(u);
      std::fill(row.begin(), row.end(), div_.quot(x));
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

void SendFloor::scatter_range(const CycleTopology& topo, NodeId first,
                              NodeId last, std::span<const Load> loads,
                              FlowSink& sink) {
  // Pure streaming stencil: one pass over loads, one write per next-load
  // slot, no adjacency traffic and no read-modify-write accumulation.
  // A gather, so the round's min, max and Σ ride the emit sweep
  // (FlowSink::merge_emit_stats) and the engine needs no stats or audit
  // pass of its own. The AVX2 path processes four interior nodes per
  // vector — three unaligned load streams (left/self/right), lane shifts
  // for the floor shares (power-of-two d⁺ only), one store — and is
  // byte-identical to the scalar rotation: same integer arithmetic, and a
  // block store equals four slot stores. The two range boundaries and any
  // tail stay scalar.
  const NodeId n = topo.num_nodes();
  const Load* xs = loads.data();
  Load lo = std::numeric_limits<Load>::max();
  Load hi = std::numeric_limits<Load>::min();
  std::uint64_t sum = 0;  // wraps, as LoadScan's Σ does

  // Scalar sweep over [a, b): left/right floor shares ride a register
  // rotation; only the two cycle boundaries wrap.
  const auto sweep = [&](NodeId a, NodeId b, auto&& emit) {
    if (a >= b) return;
    const auto at = [&](NodeId u) { return xs[static_cast<std::size_t>(u)]; };
    Load q_left = div_.quot(at(a == 0 ? n - 1 : a - 1));
    Load x = at(a);
    for (NodeId u = a; u < b; ++u) {
      DLB_REQUIRE(x >= 0, "SendFloor cannot handle negative load");
      const Load x_right = at(u + 1 == n ? 0 : u + 1);
      const Load q = div_.quot(x);
      const Load acc = x - 2 * q + q_left + div_.quot(x_right);
      emit(static_cast<std::size_t>(u), acc);
      lo = acc < lo ? acc : lo;
      hi = acc > hi ? acc : hi;
      sum += static_cast<std::uint64_t>(acc);
      q_left = q;
      x = x_right;
    }
  };

  const auto run = [&](auto&& emit, [[maybe_unused]] auto&& emit_block) {
#ifdef DLB_SIMD_AVX2
    if (div_.pow2() && simd::enabled() &&
        last - first >= 2 * simd::kLanes) {
      const __m128i sh = _mm_cvtsi32_si128(div_.pow2_shift());
      // Interior nodes: both neighbors are ±1, no wrap.
      const NodeId a = std::max<NodeId>(first, 1);
      const NodeId b = std::min<NodeId>(last, n - 1);
      sweep(first, a, emit);
      __m256i vmin = _mm256_set1_epi64x(std::numeric_limits<Load>::max());
      __m256i vmax = _mm256_set1_epi64x(std::numeric_limits<Load>::min());
      __m256i vsum = _mm256_setzero_si256();
      NodeId u = a;
      for (; u + simd::kLanes <= b; u += simd::kLanes) {
        const __m256i vx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xs + u));
        if (simd::any_negative(vx)) {
          // Negative load in the block: the scalar sweep reproduces the
          // exact per-node contract check (and throws at the right node).
          sweep(u, u + simd::kLanes, emit);
          continue;
        }
        const __m256i vl = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xs + u - 1));
        const __m256i vr = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(xs + u + 1));
        const __m256i q = _mm256_srl_epi64(vx, sh);
        __m256i acc = _mm256_sub_epi64(vx, _mm256_add_epi64(q, q));
        acc = _mm256_add_epi64(acc, _mm256_srl_epi64(vl, sh));
        acc = _mm256_add_epi64(acc, _mm256_srl_epi64(vr, sh));
        emit_block(static_cast<std::size_t>(u), acc);
        vmin = simd::min_epi64(vmin, acc);
        vmax = simd::max_epi64(vmax, acc);
        vsum = _mm256_add_epi64(vsum, acc);
      }
      const Load vlo = simd::reduce_min(vmin);
      const Load vhi = simd::reduce_max(vmax);
      lo = vlo < lo ? vlo : lo;
      hi = vhi > hi ? vhi : hi;
      sum += simd::reduce_add(vsum);
      sweep(u, last, emit);
      return;
    }
#endif
    sweep(first, last, emit);
  };

  Load* const next = sink.next();
  run([&](std::size_t u, Load acc) { next[u] = acc; },
#ifdef DLB_SIMD_AVX2
      [&](std::size_t u, __m256i acc) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + u), acc);
      }
#else
      0
#endif
  );
  sink.merge_emit_stats({lo, hi, static_cast<Load>(sum)}, last - first);
}

void SendFloor::scatter_range(const TorusTopology& topo, NodeId first,
                              NodeId last, std::span<const Load> loads,
                              FlowSink& sink) {
  // Row-blocked gather stencil: within one dimension-0 row, every
  // higher-dimension neighbor sits at a *fixed* signed offset (the wrap
  // decision depends only on that dimension's coordinate, constant over
  // the row), and the dimension-0 neighbors are ±1 with wraps at the two
  // row ends. So the inner loop reads 2r constant-stride streams plus
  // the row itself, with the offsets the topology cursor holds, and
  // writes each next-load slot exactly once — no coordinate arithmetic
  // per node, no read-modify-write accumulation.
  // next(u) = kept(u) + Σ_p ⌊x(neighbor)/d⁺⌋ is what the symmetric
  // scatter delivers, term for term; integer addition commutes, so the
  // trajectory is byte-identical, and the single touch per slot lets
  // the round's min, max and Σ ride the emit sweep (merge_emit_stats).
  // The AVX2 path gathers the same 2r + 1 streams four row-interior nodes
  // at a time (lane shifts need power-of-two d⁺; q·d is a short add chain
  // so the integer arithmetic stays exact); row ends and tails stay
  // scalar.
  Load lo = std::numeric_limits<Load>::max();
  Load hi = std::numeric_limits<Load>::min();
  std::uint64_t sum = 0;
  Load* const next = sink.next();
  torus_gather_rows(
      topo, div_, first, last, loads.data(), lo, hi, sum,
      [&](std::size_t v, Load acc) { next[v] = acc; },
#ifdef DLB_SIMD_AVX2
      [&](std::size_t v, __m256i acc) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + v), acc);
      }
#else
      0
#endif
  );
  sink.merge_emit_stats({lo, hi, static_cast<Load>(sum)}, last - first);
}

bool SendFloor::gathers(const Graph& g) const {
  // The cycle stencil and the torus row gather; the hypercube and generic
  // graphs keep the multi-touch scatter.
  const auto kind = g.structure().kind;
  return kind == GraphStructure::kCycle || kind == GraphStructure::kTorus;
}

template <class Topo>
void SendFloor::scatter_range(const Topo& topo, NodeId first, NodeId last,
                              std::span<const Load> loads, FlowSink& sink) {
  const int d = topo.degree();
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "SendFloor cannot handle negative load");
    const Load q = div_.quot(x);
    for (int p = 0; p < d; ++p) {
      next[static_cast<std::size_t>(cur.neighbor(p))] += q;
    }
    // d° self-loop shares plus the excess stay local.
    next[static_cast<std::size_t>(u)] += x - q * d;
  }
}

}  // namespace dlb
