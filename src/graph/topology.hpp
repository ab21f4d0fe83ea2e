// Implicit-topology traits: compute neighbors, don't load them.
//
// A structured graph (cycle, torus, hypercube) is arithmetic:
// neighbor(u, p) is u±1 mod n on the cycle, a per-dimension offset on the
// torus, and u ^ (1 << p) on the hypercube, while rev_port(u, p) is the
// constant p ^ 1 (cycle/torus: the reverse of a +1 edge is the paired −1
// port) or p (hypercube: flipping a bit twice returns). Each trait type
// below is that arithmetic as branch-light inline calls — the only
// definition of the family's port layout — plus a GenericTopology
// wrapper over a kGeneric Graph's tables, so every kernel is written
// once as a template and instantiated for all four.
//
// Dispatch: Graph carries a StructureInfo tag (graph.hpp); with_topology(g,
// f) switches on it once — per kernel invocation, i.e. O(1) per round —
// and calls f with the concrete trait, so the per-node loops inline the
// arithmetic with no virtual calls and, for the cycle, a compile-time
// degree. A loop over every node sweeps the trait's cursor, which
// advances by increments instead of re-deriving coordinates per node: the
// torus cursor holds each port's signed offset and touches the wrap of
// dimensions above 0 once per row.
// Correctness is pinned by tests: tests/test_graph.cpp compares every
// trait against independently built reference tables, and the golden
// tests run implicit trajectories byte-identically to the generic-table
// path of Graph::without_structure().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

/// C_n with the make_cycle port layout: port 0 = successor, port 1 =
/// predecessor. The reverse of a +1 edge is the neighbor's −1 port and
/// vice versa, so rev_port is the constant p ^ 1 — the row-mode pull
/// loop never touches the rev_ table.
class CycleTopology {
 public:
  explicit CycleTopology(NodeId n) noexcept : n_(n) {}

  static constexpr int kDegree = 2;
  int degree() const noexcept { return kDegree; }
  NodeId num_nodes() const noexcept { return n_; }

  NodeId neighbor(NodeId u, int p) const noexcept {
    const NodeId up = u + 1 == n_ ? 0 : u + 1;
    const NodeId down = u == 0 ? n_ - 1 : u - 1;
    return p == 0 ? up : down;
  }

  static int rev_port(NodeId /*u*/, int p) noexcept { return p ^ 1; }

  /// Ascending-sweep cursor (see GenericTopology::Cursor for the shape).
  class Cursor {
   public:
    Cursor(NodeId n, NodeId u) noexcept : n_(n), u_(u) {}
    NodeId neighbor(int p) const noexcept {
      const NodeId up = u_ + 1 == n_ ? 0 : u_ + 1;
      const NodeId down = u_ == 0 ? n_ - 1 : u_ - 1;
      return p == 0 ? up : down;
    }
    int rev_port(int p) const noexcept { return p ^ 1; }
    void advance() noexcept { ++u_; }

   private:
    NodeId n_;
    NodeId u_;
  };
  Cursor cursor(NodeId u) const noexcept { return Cursor(n_, u); }

 private:
  NodeId n_;
};

/// r-dimensional torus with the make_torus port layout: ports (2k, 2k+1)
/// are ±1 in dimension k, coordinates mixed-radix with stride_k = ∏ of
/// lower extents. A port's neighbor is u plus a signed offset that
/// depends only on u's coordinate in the port's dimension (port_offset,
/// the one definition of the layout). Coordinate extraction is two
/// FastDivU32 multiplies. rev_port is again p ^ 1 (every extent is >= 3,
/// so ±1 edges are distinct and pair with each other).
class TorusTopology {
 public:
  /// Max supported dimensions: extents >= 3 and n <= 2^26 cap r at 16.
  static constexpr int kMaxDims = 16;

  /// `g` is torus-tagged; Graph::implicit has checked its extents.
  explicit TorusTopology(const Graph& g) {
    const auto& extents = g.structure().extents;
    r_ = static_cast<int>(extents.size());
    std::uint32_t stride = 1;
    for (int k = 0; k < r_; ++k) {
      const auto ext =
          static_cast<std::uint32_t>(extents[static_cast<std::size_t>(k)]);
      Dim& dm = dims_[static_cast<std::size_t>(k)];
      dm.stride = stride;
      dm.ext = ext;
      dm.by_stride = FastDivU32(stride);
      dm.by_ext = FastDivU32(ext);
      stride *= ext;
    }
  }

  int degree() const noexcept { return 2 * r_; }

  NodeId neighbor(NodeId u, int p) const noexcept {
    return u + port_offset(p, coordinate(u, p >> 1));
  }

  static int rev_port(NodeId /*u*/, int p) noexcept { return p ^ 1; }

  /// Ascending-sweep cursor holding every port's signed offset, so
  /// neighbor(p) is one add. Inside a dimension-0 row only ports 0 and 1
  /// change (they wrap at the row's ends); advance() sets them from the
  /// row position and reloads the whole table, from the coordinates, only
  /// when a row ends — no division and no per-port wrap test per node.
  class Cursor {
   public:
    Cursor(const TorusTopology& topo, NodeId u) noexcept
        : topo_(&topo),
          u_(u),
          ext0_(static_cast<NodeId>(topo.dims_[0].ext)) {
      load();
    }

    NodeId neighbor(int p) const noexcept {
      return u_ + off_[static_cast<std::size_t>(p)];
    }

    int rev_port(int p) const noexcept { return p ^ 1; }

    /// One past the last node of the current node's dimension-0 row.
    NodeId row_end() const noexcept { return u_ - c0_ + ext0_; }

    void advance() noexcept {
      ++u_;
      if (++c0_ == ext0_) {
        load();
        return;
      }
      // port_offset of ports 0 and 1 at stride 1 (c0_ > 0 here).
      off_[0] = c0_ + 1 == ext0_ ? 1 - ext0_ : 1;
      off_[1] = -1;
    }

    /// Moves the cursor to node v of its current row (u <= v < row_end()).
    void seek(NodeId v) noexcept {
      DLB_ASSERT(v >= u_ && v < row_end(), "torus cursor: seek leaves the row");
      c0_ += v - u_;
      u_ = v;
      off_[0] = c0_ + 1 == ext0_ ? 1 - ext0_ : 1;
      off_[1] = c0_ == 0 ? ext0_ - 1 : -1;
    }

   private:
    void load() noexcept {
      for (int k = 0; k < topo_->r_; ++k) {
        const std::uint32_t c = topo_->coordinate(u_, k);
        if (k == 0) c0_ = static_cast<NodeId>(c);
        off_[static_cast<std::size_t>(2 * k)] = topo_->port_offset(2 * k, c);
        off_[static_cast<std::size_t>(2 * k + 1)] =
            topo_->port_offset(2 * k + 1, c);
      }
    }

    const TorusTopology* topo_;
    NodeId u_;
    NodeId c0_ = 0;  ///< u_'s dimension-0 coordinate
    NodeId ext0_;
    std::array<NodeId, 2 * kMaxDims> off_{};
  };
  Cursor cursor(NodeId u) const noexcept { return Cursor(*this, u); }

 private:
  struct Dim {
    std::uint32_t stride = 1;
    std::uint32_t ext = 1;
    FastDivU32 by_stride;
    FastDivU32 by_ext;
  };

  /// Dimension-k coordinate of u: (u / stride_k) mod ext_k.
  std::uint32_t coordinate(NodeId u, int k) const noexcept {
    const Dim& dm = dims_[static_cast<std::size_t>(k)];
    const std::uint32_t q = dm.by_stride.quot(static_cast<std::uint32_t>(u));
    return q - dm.by_ext.quot(q) * dm.ext;
  }

  /// Offset from a node to its port-p neighbor, given the node's
  /// coordinate c in dimension p / 2: ±stride, or ∓(ext − 1)·stride
  /// where the step wraps.
  NodeId port_offset(int p, std::uint32_t c) const noexcept {
    const Dim& dm = dims_[static_cast<std::size_t>(p >> 1)];
    const auto stride = static_cast<NodeId>(dm.stride);
    const NodeId wrap = static_cast<NodeId>(dm.ext - 1) * stride;
    if (p & 1) return c == 0 ? wrap : -stride;
    return c + 1 == dm.ext ? -wrap : stride;
  }

  int r_ = 0;
  std::array<Dim, kMaxDims> dims_{};
};

/// Hypercube on 2^dim nodes with the make_hypercube port layout: port p
/// flips bit p. An edge is its own reverse direction's port, so
/// rev_port(u, p) == p.
class HypercubeTopology {
 public:
  explicit HypercubeTopology(int dim) noexcept : dim_(dim) {}

  int degree() const noexcept { return dim_; }

  static NodeId neighbor(NodeId u, int p) noexcept {
    return u ^ (NodeId{1} << p);
  }

  static int rev_port(NodeId /*u*/, int p) noexcept { return p; }

  class Cursor {
   public:
    explicit Cursor(NodeId u) noexcept : u_(u) {}
    NodeId neighbor(int p) const noexcept { return u_ ^ (NodeId{1} << p); }
    int rev_port(int p) const noexcept { return p; }
    void advance() noexcept { ++u_; }

   private:
    NodeId u_;
  };
  Cursor cursor(NodeId u) const noexcept { return Cursor(u); }

 private:
  int dim_;
};

/// Fallback for kGeneric graphs: the flat port tables through
/// raw pointers (no per-call asserts — kernels own the bounds contract).
class GenericTopology {
 public:
  explicit GenericTopology(const Graph& g) noexcept
      : adj_(g.adjacency_data()), rev_(g.rev_port_data()), d_(g.degree()) {}

  int degree() const noexcept { return d_; }

  NodeId neighbor(NodeId u, int p) const noexcept {
    return adj_[static_cast<std::size_t>(u) * d_ + p];
  }

  int rev_port(NodeId u, int p) const noexcept {
    return rev_[static_cast<std::size_t>(u) * d_ + p];
  }

  /// Ascending-sweep cursor over the tables: the u*d row computation is
  /// strength-reduced to a per-node pointer bump, exactly the access
  /// pattern of the pre-topology kernels.
  class Cursor {
   public:
    Cursor(const GenericTopology& topo, NodeId u) noexcept
        : adj_row_(topo.adj_ + static_cast<std::size_t>(u) * topo.d_),
          rev_row_(topo.rev_ + static_cast<std::size_t>(u) * topo.d_),
          d_(topo.d_) {}
    NodeId neighbor(int p) const noexcept { return adj_row_[p]; }
    int rev_port(int p) const noexcept {
      return static_cast<int>(rev_row_[p]);
    }
    void advance() noexcept {
      adj_row_ += d_;
      rev_row_ += d_;
    }

   private:
    const NodeId* adj_row_;
    const std::int32_t* rev_row_;
    int d_;
  };
  Cursor cursor(NodeId u) const noexcept { return Cursor(*this, u); }

 private:
  const NodeId* adj_;
  const std::int32_t* rev_;
  int d_;
};

/// Balanced contiguous partition of the node range [0, n) into k shards:
/// shard s owns [begin(s), end(s)), sizes differing by at most one (the
/// first n mod k shards get the extra node). Ownership is pure O(1)
/// arithmetic — the sharded engine computes its edge cut and routes
/// cross-shard flows from owner() without ever materializing a
/// node→shard table.
class ShardPartition {
 public:
  ShardPartition(NodeId n, int shards) : n_(n), k_(shards) {
    DLB_REQUIRE(n >= 1, "ShardPartition: need at least one node");
    DLB_REQUIRE(shards >= 1 && shards <= n,
                "ShardPartition: shard count must be in [1, n]");
    q_ = n / shards;
    r_ = n % shards;
  }

  int shards() const noexcept { return k_; }
  NodeId num_nodes() const noexcept { return n_; }

  NodeId begin(int s) const noexcept {
    return static_cast<NodeId>(s) * q_ + (s < r_ ? s : r_);
  }
  NodeId end(int s) const noexcept { return begin(s) + size(s); }
  NodeId size(int s) const noexcept { return q_ + (s < r_ ? 1 : 0); }

  /// Shard owning node u: inverts begin()'s arithmetic (the first r
  /// shards have q+1 nodes, the rest q).
  int owner(NodeId u) const noexcept {
    const NodeId split = r_ * (q_ + 1);
    return static_cast<int>(u < split ? u / (q_ + 1)
                                      : r_ + (u - split) / q_);
  }

 private:
  NodeId n_;
  int k_;
  NodeId q_ = 0;  ///< base shard size (n / k)
  NodeId r_ = 0;  ///< shards carrying one extra node (n mod k)
};

/// Dispatches f on the graph's structure tag: f(topo) runs with
/// the concrete trait type, so the compiler specializes the kernel body
/// per topology. One switch per invocation (kernels call this once per
/// round/range, never per node).
template <class F>
decltype(auto) with_topology(const Graph& g, F&& f) {
  switch (g.structure().kind) {
    case GraphStructure::kCycle:
      return f(CycleTopology(g.num_nodes()));
    case GraphStructure::kTorus:
      return f(TorusTopology(g));
    case GraphStructure::kHypercube:
      return f(HypercubeTopology(g.degree()));
    case GraphStructure::kGeneric:
      break;
  }
  return f(GenericTopology(g));
}

}  // namespace dlb
