#include "core/fairness.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

// One pass per round with no data-dependent branch per port: each row
// folds into its min, max and Σ, and every check follows from those
// (⌈x/d⁺⌉ ≤ ⌊x/d⁺⌋ + 1, so a port got the floor or the ceiling iff
// floor ≤ f ≤ ceil). The report is held in a local and merged once.
void FairnessAuditor::on_step(Step /*t*/, const Graph& g, int d_loops,
                              std::span<const Load> pre,
                              std::span<const Load> flows,
                              std::span<const Load> /*post*/) {
  if (!initialized_) {
    n_ = g.num_nodes();
    d_ = g.degree();
    d_loops_ = d_loops;
    by_d_plus_ = FastDivU32(static_cast<std::uint32_t>(d_ + d_loops_));
    cum_.assign(static_cast<std::size_t>(n_) * d_, 0);
    initialized_ = true;
  }
  DLB_REQUIRE(g.num_nodes() == n_ && g.degree() == d_ && d_loops == d_loops_,
              "FairnessAuditor: every round must come from the first "
              "round's graph size, degree and d°");
  const NodeId n = n_;
  const int d = d_;  // >= 1 on every Graph
  const int d_plus = d + d_loops_;
  const FastDivU32 by_d_plus = by_d_plus_;
  FairnessReport r = report_;

  for (NodeId u = 0; u < n; ++u) {
    const Load x = pre[static_cast<std::size_t>(u)];
    const Load* row = flows.data() + static_cast<std::size_t>(u) * d_plus;
    Load* cum_row = cum_.data() + static_cast<std::size_t>(u) * d;
    const Load floor_share =
        (static_cast<std::uint64_t>(x) >> 32) == 0
            ? Load{by_d_plus.quot(static_cast<std::uint32_t>(x))}
            : floor_div(x, d_plus);
    const Load excess = x - d_plus * floor_share;  // e(u) ∈ [0, d⁺)
    const Load ceil_share = floor_share + (excess != 0);

    // Original edges: the row, and the cumulative row (Definition 2.1 (ii)).
    Load lo = row[0], hi = row[0], sent = row[0];
    Load cum_lo = cum_row[0] += row[0], cum_hi = cum_lo;
    for (int p = 1; p < d; ++p) {
      const Load f = row[p];
      lo = std::min(lo, f);
      hi = std::max(hi, f);
      sent += f;
      const Load c = cum_row[p] += f;
      cum_lo = std::min(cum_lo, c);
      cum_hi = std::max(cum_hi, c);
    }
    // Self-loops: the row, and how many of them got the ceiling.
    Load ceil_self_loops = 0;
    for (int p = d; p < d_plus; ++p) {
      const Load f = row[p];
      lo = std::min(lo, f);
      hi = std::max(hi, f);
      sent += f;
      ceil_self_loops += f >= ceil_share;
    }

    const Load remainder = x - sent;
    r.negative_seen |= (lo < 0) | (remainder < 0);
    r.floor_condition_ok &= lo >= floor_share;
    r.round_fair &= (lo >= floor_share) & (hi <= ceil_share);
    r.max_remainder = std::max(r.max_remainder, std::abs(remainder));
    // s-self-preference: the step admits any s with
    // min{s, e(u)} <= ceil_self_loops; when ceil_self_loops >= e(u) every
    // s works, otherwise the largest admissible s is ceil_self_loops.
    const Load s = ceil_self_loops < excess ? ceil_self_loops : r.observed_s;
    r.observed_s = std::min(r.observed_s, s);
    r.observed_delta = std::max(r.observed_delta, cum_hi - cum_lo);
  }
  ++r.steps;
  report_ = r;
}

}  // namespace dlb
