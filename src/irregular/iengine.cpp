#include "irregular/iengine.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

IrregularEngine::IrregularEngine(const IrregularGraph& g,
                                 IrregularPolicy policy, int uniform_d_plus,
                                 LoadVector initial)
    : g_(&g), policy_(policy),
      d_plus_(uniform_d_plus == 0 ? 2 * g.max_degree() : uniform_d_plus) {
  DLB_REQUIRE(d_plus_ > g.max_degree(),
              "uniform D must exceed the maximum degree");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  adopt_loads(std::move(initial));
  next_.assign(loads_.size(), 0);
  rotor_.assign(loads_.size(), 0);
}

void IrregularEngine::do_step() {
  std::fill(next_.begin(), next_.end(), 0);
  for (NodeId u = 0; u < g_->num_nodes(); ++u) {
    const Load x = loads_[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "irregular engine: negative load");
    const int deg = g_->degree(u);
    const auto nb = g_->neighbors(u);
    const Load q = floor_div(x, d_plus_);
    const Load r = x - q * d_plus_;

    Load sent = 0;
    switch (policy_) {
      case IrregularPolicy::kSendFloor:
        // Floor share on every real edge; the rest (self-loops + e(u))
        // stays local.
        for (int p = 0; p < deg; ++p) {
          next_[static_cast<std::size_t>(nb[static_cast<std::size_t>(p)])] += q;
        }
        sent = q * deg;
        break;
      case IrregularPolicy::kRotorRouter: {
        // Ports [0, deg) are real edges, [deg, D) the padding self-loops.
        int& rotor = rotor_[static_cast<std::size_t>(u)];
        for (int p = 0; p < deg; ++p) {
          Load f = q;
          // Port p receives an extra token iff its cyclic distance from
          // the rotor is < r.
          const int dist = (p - rotor + d_plus_) % d_plus_;
          if (dist < r) ++f;
          next_[static_cast<std::size_t>(nb[static_cast<std::size_t>(p)])] += f;
          sent += f;
        }
        rotor = static_cast<int>((rotor + r) % d_plus_);
        break;
      }
    }
    DLB_REQUIRE(sent <= x, "irregular engine: oversent");
    next_[static_cast<std::size_t>(u)] += x - sent;
  }
  loads_.swap(next_);
}

void IrregularEngine::build_partner_slots() {
  const NodeId n = g_->num_nodes();
  slot_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    slot_offsets_[static_cast<std::size_t>(u) + 1] =
        slot_offsets_[static_cast<std::size_t>(u)] + g_->degree(u);
  }
  const std::int64_t total = slot_offsets_[static_cast<std::size_t>(n)];
  out_.assign(static_cast<std::size_t>(total), 0);
  partner_.assign(static_cast<std::size_t>(total), -1);

  // Sort every directed slot by its undirected edge (lo, hi); within a
  // group the hi→lo slots come first, then the lo→hi slots, each in slot
  // order, and the k-th of one half pairs with the k-th of the other —
  // a deterministic pairing that also handles parallel edges.
  struct Slot {
    NodeId lo, hi;
    bool from_lo;
    std::int64_t slot;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(total));
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = g_->neighbors(u);
    const std::int64_t base = slot_offsets_[static_cast<std::size_t>(u)];
    for (int p = 0; p < g_->degree(u); ++p) {
      const NodeId v = nb[static_cast<std::size_t>(p)];
      slots.push_back({std::min(u, v), std::max(u, v), u < v, base + p});
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return std::tie(a.lo, a.hi, a.from_lo, a.slot) <
           std::tie(b.lo, b.hi, b.from_lo, b.slot);
  });
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i;
    while (j < slots.size() && slots[j].lo == slots[i].lo &&
           slots[j].hi == slots[i].hi) {
      ++j;
    }
    const std::size_t m = (j - i) / 2;
    DLB_REQUIRE((j - i) % 2 == 0 && !slots[i].from_lo &&
                    (m == 0 || slots[i + m].from_lo),
                "irregular engine: asymmetric edge multiset");
    for (std::size_t k = 0; k < m; ++k) {
      partner_[static_cast<std::size_t>(slots[i + k].slot)] =
          slots[i + m + k].slot;
      partner_[static_cast<std::size_t>(slots[i + m + k].slot)] =
          slots[i + k].slot;
    }
    i = j;
  }
}

void IrregularEngine::decide_slots(NodeId first, NodeId last) {
  for (NodeId u = first; u < last; ++u) {
    const Load x = loads_[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "irregular engine: negative load");
    const int deg = g_->degree(u);
    const Load q = floor_div(x, d_plus_);
    const Load r = x - q * d_plus_;
    Load* out = out_.data() + slot_offsets_[static_cast<std::size_t>(u)];

    Load sent = 0;
    switch (policy_) {
      case IrregularPolicy::kSendFloor:
        for (int p = 0; p < deg; ++p) out[p] = q;
        sent = q * deg;
        break;
      case IrregularPolicy::kRotorRouter: {
        int& rotor = rotor_[static_cast<std::size_t>(u)];
        for (int p = 0; p < deg; ++p) {
          const int dist = (p - rotor + d_plus_) % d_plus_;
          const Load f = q + (dist < r ? 1 : 0);
          out[p] = f;
          sent += f;
        }
        rotor = static_cast<int>((rotor + r) % d_plus_);
        break;
      }
    }
    DLB_REQUIRE(sent <= x, "irregular engine: oversent");
    next_[static_cast<std::size_t>(u)] = x - sent;  // kept-local amount
  }
}

void IrregularEngine::do_step_parallel(ThreadPool& pool) {
  if (partner_.empty()) build_partner_slots();
  const NodeId n = g_->num_nodes();
  pool.for_ranges(n, [&](std::int64_t first, std::int64_t last) {
    decide_slots(static_cast<NodeId>(first), static_cast<NodeId>(last));
  });
  pool.for_ranges(n, [&](std::int64_t first, std::int64_t last) {
    for (NodeId v = static_cast<NodeId>(first);
         v < static_cast<NodeId>(last); ++v) {
      Load acc = next_[static_cast<std::size_t>(v)];
      const std::int64_t lo = slot_offsets_[static_cast<std::size_t>(v)];
      const std::int64_t hi = slot_offsets_[static_cast<std::size_t>(v) + 1];
      for (std::int64_t j = lo; j < hi; ++j) {
        acc += out_[static_cast<std::size_t>(
            partner_[static_cast<std::size_t>(j)])];
      }
      next_[static_cast<std::size_t>(v)] = acc;
    }
  });
  loads_.swap(next_);
}

double irregular_spectral_gap(const IrregularGraph& g, int uniform_d_plus,
                              double tol, int max_iters) {
  const int d_plus = uniform_d_plus == 0 ? 2 * g.max_degree() : uniform_d_plus;
  DLB_REQUIRE(d_plus > g.max_degree(), "D must exceed max degree");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DLB_REQUIRE(n >= 2, "spectral gap needs n >= 2");

  auto matvec = [&](const std::vector<double>& x, std::vector<double>& y) {
    const double inv = 1.0 / d_plus;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      double acc = (d_plus - g.degree(v)) * inv *
                   x[static_cast<std::size_t>(v)];
      for (NodeId u : g.neighbors(v)) {
        acc += inv * x[static_cast<std::size_t>(u)];
      }
      y[static_cast<std::size_t>(v)] = acc;
    }
  };

  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.7 * static_cast<double>(i) + 0.3);
  }
  auto deflate = [&](std::vector<double>& v) {
    double mean = 0.0;
    for (double e : v) mean += e;
    mean /= static_cast<double>(v.size());
    double norm2 = 0.0;
    for (double& e : v) {
      e -= mean;
      norm2 += e * e;
    }
    return std::sqrt(norm2);
  };
  double norm = deflate(x);
  DLB_REQUIRE(norm > 0, "degenerate start vector");
  for (double& e : x) e /= norm;

  double rho_prev = -1.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    matvec(x, y);
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.5 * (y[i] + x[i]);
    double rho = 0.0;
    for (std::size_t i = 0; i < n; ++i) rho += x[i] * y[i];
    norm = deflate(y);
    if (norm == 0.0) return 1.0 - (2.0 * rho - 1.0);
    for (std::size_t i = 0; i < n; ++i) x[i] = y[i] / norm;
    if (iter > 16 && std::abs(rho - rho_prev) < tol) {
      return 1.0 - (2.0 * rho - 1.0);
    }
    rho_prev = rho;
  }
  return 1.0 - (2.0 * rho_prev - 1.0);
}

}  // namespace dlb
