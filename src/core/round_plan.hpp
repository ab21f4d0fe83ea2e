// RoundPlan: one observer-free round, next(v) = kept(v) + Σ incoming,
// over k contiguous parts (ShardPartition's balanced split).
//
// The edge cut, computed once, splits each part into maximal runs of
// interior nodes (no cut edge) and boundary nodes. Deciding a part sends
// each interior run through the balancer's decide_range, whose reads and
// writes stay in the part, and stages one Load per cut edge in edge-cut
// order (ascending node, then port); the receiving part knows each edge's
// head from the same cut. Boundary nodes decide by kernel kind:
//   * multi-touch (gathers(g) false): the slice is zero-filled, interior
//     runs add into it, and each run of boundary nodes is decided by
//     row-mode decide_range chunks whose rows are routed — local flows
//     add into the slice, cut flows are staged. An all-boundary part (the
//     hypercube at k > 1) keeps kernel speed.
//   * gather (gathers(g) true): interior runs store their slots once; a
//     boundary node stores kept(b) plus its same-part neighbours' flows,
//     read from their row-mode decisions at the reverse port. finish()
//     folds the boundary slots into the runs' emitted min, max and Σ.
// A 1-part plan has no cut, and neither has a gather whose parts share
// one load vector (a gather stores only its own slots): each part is one
// run. The flat Engine plans so and adds any staged flows directly;
// ShardedEngine frames them through its channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "core/load_vector.hpp"
#include "graph/graph.hpp"
#include "graph/topology.hpp"  // ShardPartition
#include "util/thread_pool.hpp"

namespace dlb {

class RoundPlan {
 public:
  /// `gather` is the balancer's gathers(g); `shared_loads` says every
  /// part may read every load (then a gather's plan has no cut).
  RoundPlan(const Graph& g, int d_loops, bool gather, int parts,
            bool shared_loads = false);

  const ShardPartition& partition() const noexcept { return part_; }
  int parts() const noexcept { return part_.shards(); }
  bool gathers() const noexcept { return gather_; }
  /// False when no part stages anything: the exchange has nothing to do.
  bool has_cut() const noexcept { return has_cut_; }

  /// Writes part s's local terms of round t into its slice of `next` (the
  /// engine-wide buffer) and stages its cut flows. Parts touch disjoint
  /// state; a balancer that is not parallel_decide_safe() must decide
  /// them in ascending order. Throws invariant_error when a gather leaves
  /// an interior slot unwritten or a node oversends.
  void decide(int s, Balancer& b, std::span<const Load> loads, Step t,
              Load* next);

  /// Part s's flows to part o this round, one per cut edge in edge-cut
  /// order. Empty: s never sends o anything.
  std::span<const Load> staged(int s, int o) const noexcept {
    const Part& pt = parts_[static_cast<std::size_t>(s)];
    const std::uint32_t first = pt.group[static_cast<std::size_t>(o)];
    return {pt.staged.data() + first,
            pt.group[static_cast<std::size_t>(o) + 1] - first};
  }

  /// Adds staged(from, s), given as bytes, into part s's slice; call once
  /// every part has decided. Throws invariant_error on a size mismatch.
  void receive(int s, int from, std::span<const std::byte> flows,
               Load* next) const;

  /// Closes part s after its receives: a gather part returns the min, max
  /// and Σ of its slice, a multi-touch part an empty scan.
  LoadScan finish(int s, const Load* next);

  /// Runs body(s) for every part, over `pool`'s ranges when it is
  /// non-null, else in ascending order; returns when all are done.
  template <class Body>
  void each_part(ThreadPool* pool, const Body& body) const {
    if (pool == nullptr) {
      for (int s = 0; s < parts(); ++s) body(s);
      return;
    }
    pool->for_ranges(parts(), [&](std::int64_t first, std::int64_t last) {
      for (auto s = static_cast<int>(first); s < last; ++s) body(s);
    });
  }

  std::uint64_t cut_edges(int s) const noexcept {
    return parts_[static_cast<std::size_t>(s)].staged.size();
  }
  NodeId interior_nodes(int s) const noexcept {
    return parts_[static_cast<std::size_t>(s)].interior_nodes;
  }

 private:
  struct Part {
    /// Maximal interior runs [first, last), ascending; boundary nodes fill
    /// the gaps.
    std::vector<std::pair<NodeId, NodeId>> interior;
    NodeId interior_nodes = 0;
    /// Per cut edge (edge-cut order) its slot in `staged`, then a spare.
    std::vector<std::uint32_t> cuts;
    std::vector<Load> staged;          ///< cut flows, grouped by dest
    std::vector<std::uint32_t> group;  ///< [dest] its first slot; k + 1 entries
    std::vector<std::vector<NodeId>> heads;  ///< [sender] its edges' heads
    /// Multi-touch: one chunk of boundary rows. Gather: a row per source.
    std::vector<Load> rows;
    // Gather: the boundary nodes; runs of the nodes whose decisions they
    // read (each and its same-part neighbours); per boundary node 1 + d
    // offsets into rows (its own row, then per port the neighbour's flow
    // into it, −1 across the cut).
    std::vector<NodeId> boundary;
    std::vector<std::pair<NodeId, NodeId>> sources;
    std::vector<std::int64_t> pulls;
    LoadScan scan;  ///< gather: this round's emit stats
  };

  void build();
  void decide_multi_touch(int s, Part& pt, Balancer& b,
                          std::span<const Load> loads, Step t, Load* next);
  void decide_gather(Part& pt, Balancer& b, std::span<const Load> loads,
                     Step t, Load* next);

  const Graph* g_;
  int d_loops_;
  bool gather_;
  bool has_cut_ = false;
  ShardPartition part_;
  std::vector<Part> parts_;
};

}  // namespace dlb
