// Load-vector helpers: the paper's basic observables.
//
// x_t ∈ Z^n is the token count per node. The two quantities every theorem
// speaks about are the *discrepancy* max x − min x and the *balancedness*
// max x − x̄ (gap to the average load).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/alloc.hpp"
#include "util/assertions.hpp"

namespace dlb {

using Load = std::int64_t;
using Step = std::int64_t;

/// The hot per-node arrays (loads, next loads) live in
/// cache-line-aligned, huge-page-backed storage (util/alloc.hpp): SIMD
/// kernels get aligned streams and production-sized vectors (8 MiB at
/// 2^20 nodes) stop thrashing the TLB. Still a std::vector — only the
/// allocator differs — so spans, iterators, and swap work unchanged.
using LoadVector = std::vector<Load, AlignedAllocator<Load>>;

/// Min, max and Σ of a set of loads: what a round publishes from its own
/// sweep (FlowSink's emit stats, the apply pull) and what the ledger's
/// rescan returns.
struct LoadScan {
  Load min = std::numeric_limits<Load>::max();
  Load max = std::numeric_limits<Load>::min();
  Load sum = 0;

  /// Folds `xs` in. The sum wraps: the total is checked, so a conserving
  /// round's wrapped Σx still equals it, and the plain loop keeps
  /// vectorizing.
  void add(std::span<const Load> xs) noexcept {
    Load lo = min;
    Load hi = max;
    auto s = static_cast<std::uint64_t>(sum);
    for (const Load v : xs) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      s += static_cast<std::uint64_t>(v);
    }
    min = lo;
    max = hi;
    sum = static_cast<Load>(s);
  }
  /// Folds in another chunk's scan; the sums wrap as in add().
  void merge(const LoadScan& o) noexcept {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    sum = static_cast<Load>(static_cast<std::uint64_t>(sum) +
                            static_cast<std::uint64_t>(o.sum));
  }
};

inline Load total_load(std::span<const Load> x) {
  Load sum = 0;
  for (Load v : x) sum += v;
  return sum;
}

inline Load max_load(std::span<const Load> x) {
  DLB_REQUIRE(!x.empty(), "max_load of empty vector");
  return *std::max_element(x.begin(), x.end());
}

inline Load min_load(std::span<const Load> x) {
  DLB_REQUIRE(!x.empty(), "min_load of empty vector");
  return *std::min_element(x.begin(), x.end());
}

/// Discrepancy: max_u x(u) − min_u x(u).
inline Load discrepancy(std::span<const Load> x) {
  DLB_REQUIRE(!x.empty(), "discrepancy of empty vector");
  const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
  return *hi - *lo;
}

/// Average load x̄ as a real number (total load is conserved, so this is
/// constant over a run).
inline double average_load(std::span<const Load> x) {
  DLB_REQUIRE(!x.empty(), "average_load of empty vector");
  return static_cast<double>(total_load(x)) / static_cast<double>(x.size());
}

/// Balancedness: max_u x(u) − x̄ (the paper's "gap to the average").
inline double balancedness(std::span<const Load> x) {
  return static_cast<double>(max_load(x)) - average_load(x);
}

}  // namespace dlb
