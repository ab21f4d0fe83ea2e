#include "balancers/rotor_router.hpp"

#include <numeric>

#include "graph/topology.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"

namespace dlb {

void RotorRouter::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "RotorRouter: negative self-loop count");
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  d_plus_ = graph.degree() + d_loops;
  DLB_REQUIRE(d_plus_ >= 1, "RotorRouter: needs at least one port");
  div_ = NonNegDiv(d_plus_);

  port_order_.resize(n * static_cast<std::size_t>(d_plus_));
  rotor_.assign(n, 0);

  Rng rng(seed_);
  for (std::size_t u = 0; u < n; ++u) {
    std::int32_t* row = port_order_.data() + u * static_cast<std::size_t>(d_plus_);
    std::iota(row, row + d_plus_, 0);
    if (seed_ != 0) {
      std::span<std::int32_t> perm{row, static_cast<std::size_t>(d_plus_)};
      rng.shuffle(perm);
      rotor_[u] = static_cast<int>(rng.uniform_u64(
          static_cast<std::uint64_t>(d_plus_)));
    }
  }

  if (!prescribed_order_.empty()) {
    DLB_REQUIRE(prescribed_order_.size() == port_order_.size(),
                "prescribed port order has wrong size");
    // Each node's row must be a permutation of its ports.
    for (std::size_t u = 0; u < n; ++u) {
      std::vector<char> seen(static_cast<std::size_t>(d_plus_), 0);
      for (int k = 0; k < d_plus_; ++k) {
        const std::int32_t p =
            prescribed_order_[u * static_cast<std::size_t>(d_plus_) +
                              static_cast<std::size_t>(k)];
        DLB_REQUIRE(p >= 0 && p < d_plus_ && !seen[static_cast<std::size_t>(p)],
                    "prescribed port order is not a permutation");
        seen[static_cast<std::size_t>(p)] = 1;
      }
    }
    port_order_ = prescribed_order_;
  }

  if (!prescribed_rotors_.empty()) {
    DLB_REQUIRE(prescribed_rotors_.size() == n,
                "prescribed rotor vector has wrong size");
    for (std::size_t u = 0; u < n; ++u) {
      DLB_REQUIRE(prescribed_rotors_[u] >= 0 && prescribed_rotors_[u] < d_plus_,
                  "prescribed rotor out of range");
      rotor_[u] = prescribed_rotors_[u];
    }
  }

  // Structured specialization: with the natural port order (seed 0, no
  // prescribed permutation) cyclic position == port, so an extra token's
  // destination is pure arithmetic — neighbor(u, pos) for pos < d, u
  // itself for self-loop positions. The scatter kernel then computes
  // targets through the topology cursor and the n·2d⁺ target table is
  // never built (on a tagged cycle/torus/hypercube the whole rotor walk
  // becomes register arithmetic on (position, d⁺)). Shuffled or
  // prescribed orders encode genuine per-node state, so they keep the
  // table.
  natural_order_ = seed_ == 0 && prescribed_order_.empty();
  const int d = graph.degree();
  extra_targets_.clear();
  port_order2x_.clear();
  if (natural_order_) return;

  // Resolve every cyclic position to the node an extra token lands on
  // (doubled per node so the kernel's rotor walk never wraps). The
  // row-kernel companion table (port_order2x_) is built lazily in
  // prepare_round — scatter-only runs never pay for it.
  extra_targets_.resize(n * 2 * static_cast<std::size_t>(d_plus_));
  with_topology(graph, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    for (std::size_t u = 0; u < n; ++u, cur.advance()) {
      const std::int32_t* row =
          port_order_.data() + u * static_cast<std::size_t>(d_plus_);
      NodeId* tgt =
          extra_targets_.data() + u * 2 * static_cast<std::size_t>(d_plus_);
      for (int pos = 0; pos < d_plus_; ++pos) {
        const std::int32_t port = row[pos];
        const NodeId dest =
            port < d ? cur.neighbor(port) : static_cast<NodeId>(u);
        tgt[pos] = dest;
        tgt[d_plus_ + pos] = dest;
      }
    }
  });
}

void RotorRouter::prepare_round(std::span<const Load> /*loads*/, Step /*t*/,
                                FlowSink& sink) {
  // The doubled port permutation exists only for row-mode rounds; build
  // it here (prepare_round is always serial) on first need so the
  // scatter hot path never allocates it.
  if (!sink.row_mode() || !port_order2x_.empty()) return;
  const std::size_t n = rotor_.size();
  port_order2x_.resize(n * 2 * static_cast<std::size_t>(d_plus_));
  for (std::size_t u = 0; u < n; ++u) {
    const std::int32_t* row =
        port_order_.data() + u * static_cast<std::size_t>(d_plus_);
    std::int32_t* ports =
        port_order2x_.data() + u * 2 * static_cast<std::size_t>(d_plus_);
    for (int pos = 0; pos < d_plus_; ++pos) {
      ports[pos] = row[pos];
      ports[d_plus_ + pos] = row[pos];
    }
  }
}

void RotorRouter::set_initial_rotors(std::vector<int> rotors) {
  prescribed_rotors_ = std::move(rotors);
}

void RotorRouter::set_port_order(std::vector<std::int32_t> order) {
  prescribed_order_ = std::move(order);
}

int RotorRouter::rotor(NodeId u) const {
  DLB_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < rotor_.size(),
              "rotor: bad node");
  return rotor_[static_cast<std::size_t>(u)];
}

void RotorRouter::decide(NodeId u, Load load, Step /*t*/,
                         std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "RotorRouter cannot handle negative load");
  const Load q = floor_div(load, d_plus_);
  const Load r = load - q * d_plus_;

  const std::int32_t* order =
      port_order_.data() + static_cast<std::size_t>(u) * d_plus_;
  int& rotor = rotor_[static_cast<std::size_t>(u)];

  // Every port gets the floor share; the next r ports in cyclic order
  // (starting at the rotor) get one extra token each.
  for (int k = 0; k < d_plus_; ++k) {
    flows[static_cast<std::size_t>(order[k])] = q;
  }
  for (Load k = 0; k < r; ++k) {
    const int pos = static_cast<int>((rotor + k) % d_plus_);
    ++flows[static_cast<std::size_t>(order[pos])];
  }
  rotor = static_cast<int>((rotor + r) % d_plus_);
}

void RotorRouter::decide_range(NodeId first, NodeId last,
                               std::span<const Load> loads, Step /*t*/,
                               FlowSink& sink) {
  if (sink.row_mode()) {
    for (NodeId u = first; u < last; ++u) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "RotorRouter cannot handle negative load");
      const Load q = div_.quot(x);
      const int r = static_cast<int>(x - q * d_plus_);
      const std::int32_t* ports = port_order2x_.data() +
                                  static_cast<std::size_t>(u) * 2 * d_plus_;
      int& rotor = rotor_[static_cast<std::size_t>(u)];
      std::span<Load> row = sink.row(u);
      std::fill(row.begin(), row.end(), q);
      // Wrap-free, fixed-trip extras walk over the doubled permutation
      // (same masked-increment trick as the scatter kernel below).
      for (int k = 0; k < d_plus_ - 1; ++k) {
        row[static_cast<std::size_t>(ports[rotor + k])] +=
            static_cast<Load>(k < r);
      }
      rotor = rotor + r < d_plus_ ? rotor + r : rotor + r - d_plus_;
    }
    return;
  }
  with_topology(sink.graph(), [&](const auto& topo) {
    scatter_range(topo, first, last, loads, sink);
  });
}

template <class Topo>
void RotorRouter::scatter_range(const Topo& topo, NodeId first, NodeId last,
                                std::span<const Load> loads, FlowSink& sink) {
  const int d = topo.degree();
  Load* const next = sink.next();
  auto cur = topo.cursor(first);
  if (natural_order_) {
    // Natural port order: cyclic position == port, so the extras walk is
    // pure arithmetic on (position, d⁺) — no permutation table exists.
    // Identical add order and destinations as the table walk below
    // (position pos maps to neighbor(u, pos) for pos < d, u otherwise).
    for (NodeId u = first; u < last; ++u, cur.advance()) {
      const Load x = loads[static_cast<std::size_t>(u)];
      DLB_REQUIRE(x >= 0, "RotorRouter cannot handle negative load");
      const Load q = div_.quot(x);
      const int r = static_cast<int>(x - q * d_plus_);
      int& rotor = rotor_[static_cast<std::size_t>(u)];

      for (int p = 0; p < d; ++p) {
        next[static_cast<std::size_t>(cur.neighbor(p))] += q;
      }
      // Fixed trip count of d⁺−1 with a masked increment; the
      // conditional subtract keeps the walk wrap- and division-free.
      for (int k = 0; k < d_plus_ - 1; ++k) {
        int pos = rotor + k;
        pos -= pos >= d_plus_ ? d_plus_ : 0;
        const NodeId dest = pos < d ? cur.neighbor(pos) : u;
        next[static_cast<std::size_t>(dest)] += static_cast<Load>(k < r);
      }
      rotor = rotor + r < d_plus_ ? rotor + r : rotor + r - d_plus_;
      next[static_cast<std::size_t>(u)] += x - q * d - r;
    }
    return;
  }
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "RotorRouter cannot handle negative load");
    const Load q = div_.quot(x);
    const int r = static_cast<int>(x - q * d_plus_);
    const NodeId* targets = extra_targets_.data() +
                            static_cast<std::size_t>(u) * 2 * d_plus_;
    int& rotor = rotor_[static_cast<std::size_t>(u)];

    for (int p = 0; p < d; ++p) {
      next[static_cast<std::size_t>(cur.neighbor(p))] += q;
    }
    // Every extra token lands on a precomputed target (neighbour or u
    // itself for self-loop positions). Fixed trip count of d⁺−1 with a
    // masked increment: r < d⁺ is data-dependent, so a `k < r` loop bound
    // would mispredict on nearly every node.
    for (int k = 0; k < d_plus_ - 1; ++k) {
      next[static_cast<std::size_t>(targets[rotor + k])] +=
          static_cast<Load>(k < r);
    }
    rotor = rotor + r < d_plus_ ? rotor + r : rotor + r - d_plus_;
    // Self-loop base shares stay local; the r extras are all accounted
    // for by the targets walk above.
    next[static_cast<std::size_t>(u)] += x - q * d - r;
  }
}


void RotorRouter::save_state(StateWriter& w) const { w.vec_int(rotor_); }

void RotorRouter::load_state(StateReader& r) {
  std::vector<int> rotor = r.vec_int();
  DLB_REQUIRE(rotor.size() == rotor_.size(),
              "RotorRouter: rotor state size mismatch");
  for (int pos : rotor) {
    DLB_REQUIRE(pos >= 0 && pos < d_plus_,
                "RotorRouter: rotor position out of range");
  }
  rotor_ = std::move(rotor);
}

}  // namespace dlb
