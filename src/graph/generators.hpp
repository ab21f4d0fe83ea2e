// Generators for the d-regular graph families the paper quantifies over.
//
// The cycle, torus and hypercube are arithmetic: their generators return
// Graph::implicit graphs, which carry only a structure tag and no port
// tables, so building one costs O(1) time and memory at any size.
// Every other family is materialized as port tables (kGeneric); call
// without_structure() for a table-backed copy of a structured graph.
// Families:
//   cycle        — Thm 2.3(ii) and the Thm 4.3 odd-cycle lower bound
//   torus        — r-dimensional torus, r = O(1) (prior-work comparisons)
//   hypercube    — the classic benchmark graph of [9], [3]
//   complete     — maximal expansion sanity case
//   circulant    — base family of the Thm 4.2 stateless lower bound
//   random_regular — configuration-model expander (Thm 2.3(i) workloads)
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb {

/// Cycle C_n (d = 2), implicit. Port 0 is u+1 mod n, port 1 is u−1 mod
/// n. Requires n >= 3.
Graph make_cycle(NodeId n);

/// Two-dimensional w×h torus (d = 4), implicit. Requires w,h >= 3.
Graph make_torus2d(NodeId width, NodeId height);

/// r-dimensional torus with per-dimension extents (d = 2r), implicit.
/// Ports (2k, 2k+1) are ±1 in dimension k. Every extent must be >= 3 and
/// the node count at most 2^26.
Graph make_torus(const std::vector<NodeId>& extents);

/// Hypercube on 2^dim nodes (d = dim), implicit. Port p flips bit p.
/// Requires 1 <= dim <= 20.
Graph make_hypercube(int dim);

/// Complete graph K_n (d = n-1). Requires n >= 2.
Graph make_complete(NodeId n);

/// Circulant graph: node i adjacent to (i ± o) mod n for each offset o.
///
/// Offsets must be distinct, in [1, n/2]. An offset equal to n/2 (only
/// valid for even n) contributes a single edge, so the degree is
/// 2*|offsets| minus the number of offsets equal to n/2.
Graph make_circulant(NodeId n, const std::vector<NodeId>& offsets);

/// The Thm 4.2 lower-bound graph: node i adjacent to all j with
/// (i-j) mod n in {±1,...,±⌊d/2⌋}, plus the diametral edge when d is odd
/// (requires even n in that case). Nodes {0,...,⌊d/2⌋-1} form a clique.
Graph make_clique_circulant(NodeId n, int d);

/// Symmetrized de Bruijn graph B(base, digits): n = base^digits nodes,
/// d = 2·base (out-shifts plus in-shifts). Logarithmic diameter at
/// constant degree; contains self-edges (e.g. node 0) and parallel
/// edges, both handled by the engine. Requires base >= 2, digits >= 2.
Graph make_debruijn(NodeId base, int digits);

/// The Petersen graph (n = 10, d = 3): outer 5-cycle, inner pentagram,
/// spokes. Classic 3-regular non-bipartite graph with odd girth 5.
Graph make_petersen();

/// Complete bipartite graph K_{r,r}: n = 2r nodes, d = r, bipartite —
/// the extreme case for the d° = 0 periodicity failure.
Graph make_complete_bipartite(NodeId r);

/// Margulis–Gabber–Galil expander on Z_m × Z_m (n = m², d = 8).
///
/// Node (x, y) is adjacent to (x±y, y), (x±(y+1)… via the four maps
/// T₁(x,y) = (x+y, y), T₂(x,y) = (x, y+x), T₃(x,y) = (x+y+1, y),
/// T₄(x,y) = (x, y+x+1) and their inverses (all mod m). A fully
/// deterministic constant-degree expander: λ(G) <= 5√2/8 independent of
/// m. The defining maps have fixed points, so the graph contains
/// self-edges (in map/inverse pairs) and parallel edges; the engine and
/// analysis handle both.
Graph make_margulis(NodeId m);

/// Random d-regular simple graph via the configuration model with
/// rejection (retries until the pairing yields no self-edges or parallel
/// edges). Requires n*d even and d < n. Deterministic given `seed`.
Graph make_random_regular(NodeId n, int d, std::uint64_t seed);

}  // namespace dlb
