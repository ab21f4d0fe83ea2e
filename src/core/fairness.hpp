// Fairness auditors: observe a run and certify class membership.
//
// The paper's results are quantified over *classes* of algorithms:
//   Definition 2.1 (cumulatively δ-fair): every port gets ≥ ⌊x/d⁺⌋ per
//     step, and cumulative flows over any two original edges of a node
//     differ by ≤ δ at all times.
//   Definition 3.1 (good s-balancer): additionally round-fair (every port
//     gets ⌊x/d⁺⌋ or ⌈x/d⁺⌉) and s-self-preferring (at least min{s, e(u)}
//     self-loops get ⌈x/d⁺⌉, where e(u) = x − d⁺⌊x/d⁺⌋).
//
// Rather than trusting balancer implementations, the auditor measures all
// of these properties from the actual flow matrices: tests assert e.g.
// that ROTOR-ROUTER is cumulatively 1-fair *as observed*, and experiments
// report the empirical δ and s of every run.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "util/intmath.hpp"

namespace dlb {

/// Everything the auditor can certify about a finished run.
struct FairnessReport {
  /// Empirical δ: max over steps and nodes of max_{e1,e2∈Eu}|F(e1)−F(e2)|.
  Load observed_delta = 0;

  /// Definition 2.1 condition (i): every port received ≥ ⌊x/d⁺⌋ tokens in
  /// every step.
  bool floor_condition_ok = true;

  /// Round-fairness: every port received ⌊x/d⁺⌋ or ⌈x/d⁺⌉ every step.
  bool round_fair = true;

  /// Empirical s: the largest s for which the run was s-self-preferring
  /// (infinite when e(u) self-loops always got the ceiling; reported as
  /// max int64 in that case). 0 means the property failed entirely.
  std::int64_t observed_s = std::numeric_limits<std::int64_t>::max();

  /// Max |r_t(u)| over the run (the paper requires r ≤ d⁺, Prop. A.2).
  Load max_remainder = 0;

  /// True if some step produced a negative flow or a negative remainder.
  bool negative_seen = false;

  Step steps = 0;
};

/// StepObserver that incrementally builds a FairnessReport. One auditor
/// watches one run: every round must come from the graph size, degree and
/// d° of the first.
class FairnessAuditor : public StepObserver {
 public:
  FairnessAuditor() = default;

  void on_step(Step t, const Graph& g, int d_loops,
               std::span<const Load> pre, std::span<const Load> flows,
               std::span<const Load> post) override;

  const FairnessReport& report() const noexcept { return report_; }

 private:
  bool initialized_ = false;
  NodeId n_ = 0;
  int d_ = 0;
  int d_loops_ = 0;
  FastDivU32 by_d_plus_;   // ⌊x/d⁺⌋ for 0 <= x < 2^32
  std::vector<Load> cum_;  // cumulative per original edge: n * d
  FairnessReport report_;
};

}  // namespace dlb
