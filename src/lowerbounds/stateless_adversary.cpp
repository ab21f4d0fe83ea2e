#include "lowerbounds/stateless_adversary.hpp"

#include <algorithm>

#include "util/assertions.hpp"

namespace dlb {

CliqueAdversaryInstance make_clique_adversary_instance(const Graph& g) {
  const int d = g.degree();
  const NodeId clique_size = d / 2;
  DLB_REQUIRE(clique_size >= 2,
              "clique adversary needs d >= 4 (a clique of >= 2 nodes)");

  // Verify {0, …, clique_size−1} is indeed a clique (it is for
  // make_clique_circulant; fail loudly for other graphs).
  for (NodeId u = 0; u < clique_size; ++u) {
    for (NodeId v = 0; v < clique_size; ++v) {
      if (u == v) continue;
      bool adjacent = false;
      for (int p = 0; p < d && !adjacent; ++p) {
        adjacent = g.neighbor(u, p) == v;
      }
      DLB_REQUIRE(adjacent,
                  "clique adversary: first ⌊d/2⌋ nodes are not a clique");
    }
  }

  CliqueAdversaryInstance inst;
  inst.clique_size = clique_size;
  inst.clique_load = clique_size - 1;
  inst.initial.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId u = 0; u < clique_size; ++u) {
    inst.initial[static_cast<std::size_t>(u)] = inst.clique_load;
  }
  return inst;
}

void StatelessCliqueBalancer::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "StatelessCliqueBalancer: bad self-loop count");
  d_ = graph.degree();
  d_loops_ = d_loops;
  const auto ell = static_cast<std::size_t>(instance_.clique_load);
  clique_ports_.assign(static_cast<std::size_t>(instance_.clique_size) * ell,
                       -1);
  for (NodeId u = 0; u < instance_.clique_size; ++u) {
    std::size_t k = 0;
    for (int p = 0; p < d_; ++p) {
      const NodeId v = graph.neighbor(u, p);
      if (v < instance_.clique_size) {
        DLB_REQUIRE(k < ell, "clique node has too many clique ports");
        clique_ports_[static_cast<std::size_t>(u) * ell + k++] =
            static_cast<std::int32_t>(p);
      }
    }
    DLB_REQUIRE(k == ell, "clique node has too few clique ports");
  }
}

void StatelessCliqueBalancer::decide(NodeId u, Load load, Step /*t*/,
                                     std::span<Load> flows) {
  std::fill(flows.begin(), flows.end(), 0);
  if (load <= 0) return;

  // Stateless rule: with load x, send one token over each of the first
  // min{x, ℓ} ports. The adversarial labeling makes those the clique
  // ports for clique nodes; all other nodes hold load 0 in this instance
  // so the labeling there never matters.
  const Load ell = instance_.clique_load;
  const Load send = std::min(load, ell);
  if (u < instance_.clique_size) {
    const std::size_t base =
        static_cast<std::size_t>(u) * static_cast<std::size_t>(ell);
    for (Load k = 0; k < send; ++k) {
      flows[static_cast<std::size_t>(
          clique_ports_[base + static_cast<std::size_t>(k)])] = 1;
    }
  } else {
    for (Load k = 0; k < send; ++k) flows[static_cast<std::size_t>(k)] = 1;
  }
}

}  // namespace dlb
