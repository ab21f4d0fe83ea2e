// Immutable d-regular symmetric (multi)graph used as the balancing network.
//
// The paper's model (Section 1.3): a symmetric directed d-regular graph
// G = (V, E) with n nodes; every node has out-degree and in-degree d. The
// *balancing graph* G⁺ adds d° self-loops per node, but — as the paper
// stresses — G⁺ is an analysis device only, so this class stores G alone;
// the number of self-loops is a run-time parameter of the engine.
//
// A structured graph (cycle, torus, hypercube) is its StructureInfo tag
// alone: neighbor() and rev_port() evaluate the family's arithmetic. Any
// other graph is a flat port array — node u's i-th out-neighbour lives at
// adj[u*d + i] — plus a rev_port table that pairs the two directions of
// an edge in O(1). Parallel edges are allowed (the configuration model
// can produce them); self-edges in G are rejected unless allowed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/assertions.hpp"

namespace dlb {

using NodeId = std::int32_t;

/// Recognized implicit structures. A structured graph's adjacency is pure
/// arithmetic — neighbor(u, p) is u±1 mod n (cycle), a per-dimension torus
/// offset, or u ^ (1 << p) (hypercube) — so hot kernels can *compute*
/// neighbors instead of streaming the n·d port tables (graph/topology.hpp
/// holds the trait types the kernels template on).
enum class GraphStructure : std::uint8_t {
  kGeneric = 0,  ///< no known structure: kernels stream the port tables
  kCycle,        ///< C_n port layout: port 0 = u+1 mod n, port 1 = u−1 mod n
  kTorus,        ///< r-dim torus: ports (2k, 2k+1) = ±1 in dimension k
  kHypercube,    ///< port p = u ^ (1 << p)
};

/// Structure tag of a Graph::implicit graph (kGeneric on a table-built
/// one); its parameters are checked against n and d at construction.
struct StructureInfo {
  GraphStructure kind = GraphStructure::kGeneric;
  /// kTorus only: per-dimension extents, size r (degree = 2r, node u's
  /// dimension-k coordinate is (u / stride_k) mod extents[k] with
  /// mixed-radix strides). Empty for every other kind (the cycle and
  /// hypercube parameters derive from n and d).
  std::vector<NodeId> extents;
};

/// d-regular symmetric multigraph with O(1) reverse-port lookup.
class Graph {
 public:
  /// Builds a graph from a flat port array.
  ///
  /// `adjacency` has `num_nodes * degree` entries; entry `u*degree + i` is
  /// the head of the i-th out-edge of node u. The edge multiset must be
  /// symmetric (as a multiset of directed edges). Self-edges are rejected
  /// unless `allow_self_edges` is set (the Margulis–Gabber–Galil expander
  /// has fixed points of its defining maps; such self-edges always come in
  /// map/inverse-map pairs and are paired with each other). Throws
  /// invariant_error otherwise. The result is always kGeneric.
  Graph(NodeId num_nodes, int degree, std::vector<NodeId> adjacency,
        std::string name = "graph", bool allow_self_edges = false);

  /// Builds a *table-free* structured graph: neighbor()/rev_port()
  /// evaluate the tag's formula, so it costs O(1) memory at any size.
  /// make_cycle, make_torus and make_hypercube return these. Throws
  /// invariant_error unless the tag is a structured kind that fits n, d.
  static Graph implicit(NodeId num_nodes, int degree, std::string name,
                        StructureInfo structure);

  NodeId num_nodes() const noexcept { return n_; }
  int degree() const noexcept { return d_; }
  std::int64_t num_directed_edges() const noexcept {
    return static_cast<std::int64_t>(n_) * d_;
  }
  const std::string& name() const noexcept { return name_; }

  /// Head of the `port`-th out-edge of `u`. A loop over every node
  /// should sweep a with_topology cursor (graph/topology.hpp) instead.
  NodeId neighbor(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_, "neighbor: bad args");
    if (!adj_.empty()) return adj_[static_cast<std::size_t>(u) * d_ + port];
    return implicit_neighbor(u, port);
  }

  /// Port index at `neighbor(u, port)` of the paired reverse edge.
  ///
  /// Invariant: neighbor(neighbor(u,p), rev_port(u,p)) == u, and the
  /// pairing is an involution.
  int rev_port(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_, "rev_port: bad args");
    if (!rev_.empty()) return rev_[static_cast<std::size_t>(u) * d_ + port];
    // Implicit families: cycle/torus pair +1 with −1 (p ^ 1); the
    // hypercube edge is its own reverse port.
    return structure_.kind == GraphStructure::kHypercube ? port : (port ^ 1);
  }

  /// Global directed-edge index of (u, port); dense in [0, n*d).
  std::int64_t edge_index(NodeId u, int port) const {
    DLB_ASSERT(valid_node(u) && port >= 0 && port < d_,
               "edge_index: bad args");
    return static_cast<std::int64_t>(u) * d_ + port;
  }

  bool valid_node(NodeId u) const noexcept { return u >= 0 && u < n_; }

  /// True if some unordered pair of nodes is joined by >1 edge.
  bool has_parallel_edges() const noexcept { return has_parallel_; }

  /// The structure tag (kGeneric for a table-built graph). Engines
  /// dispatch their fast-path kernels on this.
  const StructureInfo& structure() const noexcept { return structure_; }

  /// FNV-1a over every neighbor(u, p) as four little-endian bytes, in
  /// port-table order: the adjacency fingerprint a snapshot carries. Two
  /// graphs hash equal iff their adjacency arrays are identical, whether
  /// a formula or a table holds them (rev ports are derived). The O(n·d)
  /// pass runs on the first call and is cached; any number of threads
  /// may make that call at once.
  std::uint64_t adjacency_hash() const;

  /// Table-built copy of this graph (the formula written out as port
  /// tables), forcing every kernel onto the generic path. The
  /// implicit≡generic golden tests and the BM_StepImplicit_* /
  /// BM_StepGeneric_* bench pairs run one adjacency through both paths.
  Graph without_structure() const;

  /// Raw flat port tables (size n·d, layout [u*d + p]) for the generic
  /// topology wrapper's unchecked hot-loop access. Only kGeneric graphs
  /// carry tables, and with_topology hands those alone to the wrapper.
  const NodeId* adjacency_data() const noexcept {
    DLB_ASSERT(!adj_.empty(), "adjacency_data: structured graph");
    return adj_.data();
  }
  const std::int32_t* rev_port_data() const noexcept {
    DLB_ASSERT(!rev_.empty(), "rev_port_data: structured graph");
    return rev_.data();
  }

 private:
  Graph() = default;  ///< used by the implicit() factory only
  NodeId implicit_neighbor(NodeId u, int port) const;
  void build_reverse_ports();
  /// Checks the tag's parameters against n and d.
  void verify_structure() const;

  /// adjacency_hash()'s cache. A graph never changes, so a racing first
  /// call stores the same value twice; a copy takes the value along.
  class CachedHash {
   public:
    CachedHash() = default;
    CachedHash(const CachedHash& other) noexcept { *this = other; }
    CachedHash& operator=(const CachedHash& other) noexcept {
      std::uint64_t v = 0;
      const bool known = other.get(v);
      value_.store(v, std::memory_order_relaxed);
      known_.store(known, std::memory_order_release);
      return *this;
    }
    bool get(std::uint64_t& out) const noexcept {
      if (!known_.load(std::memory_order_acquire)) return false;
      out = value_.load(std::memory_order_relaxed);
      return true;
    }
    void set(std::uint64_t v) const noexcept {
      value_.store(v, std::memory_order_relaxed);
      known_.store(true, std::memory_order_release);
    }

   private:
    mutable std::atomic<std::uint64_t> value_{0};
    mutable std::atomic<bool> known_{false};
  };

  NodeId n_;
  int d_;
  std::vector<NodeId> adj_;
  std::vector<std::int32_t> rev_;
  std::string name_;
  bool has_parallel_ = false;
  StructureInfo structure_;
  CachedHash adjacency_hash_;
};

}  // namespace dlb
