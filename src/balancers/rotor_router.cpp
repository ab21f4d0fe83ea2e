#include "balancers/rotor_router.hpp"

#include <numeric>
#include <utility>

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
  DLB_REQUIRE(d_plus_ <= 65536,
              "RotorRouter: more than 65536 ports (d + d°); a cyclic "
              "position must fit 16 bits");
  const auto d_plus = static_cast<std::size_t>(d_plus_);
  DLB_REQUIRE(prescribed_order_.empty() ||
                  prescribed_order_.size() == n * d_plus,
              "prescribed port order has wrong size");
  DLB_REQUIRE(prescribed_rotors_.empty() || prescribed_rotors_.size() == n,
              "prescribed rotor vector has wrong size");
  div_ = NonNegDiv(d_plus_);
  rotor_.assign(n, 0);
  pos_.resize(n * d_plus);

  // Each node's order is its prescribed row or else the natural order,
  // shuffled when the seed is nonzero. The seed's draws (shuffle, then
  // rotor) happen either way, so a prescription never shifts the seeded
  // rotors.
  // Inverting the order into pos_ also checks it is a permutation:
  // seen[p] == u once port p has a position at node u.
  Rng rng(seed_);
  std::vector<std::int32_t> drawn(d_plus);
  std::vector<std::size_t> seen(d_plus, n);
  // The draws of rng.shuffle(drawn) then rng.uniform_u64(d_plus), each
  // against a bound b in 1..d⁺ whose remainder helper by_bound[b] is built
  // once here instead of a hardware division per draw.
  std::vector<FastModU64> by_bound(seed_ != 0 ? d_plus + 1 : 0);
  for (std::size_t b = 1; b < by_bound.size(); ++b) by_bound[b] = FastModU64(b);
  for (std::size_t u = 0; u < n; ++u) {
    std::iota(drawn.begin(), drawn.end(), 0);
    if (seed_ != 0) {
      for (std::size_t i = d_plus - 1; i > 0; --i) {
        std::swap(drawn[i], drawn[rng.uniform_u64(by_bound[i + 1])]);
      }
      rotor_[u] = static_cast<int>(rng.uniform_u64(by_bound[d_plus]));
    }
    const std::int32_t* order = prescribed_order_.empty()
                                    ? drawn.data()
                                    : prescribed_order_.data() + u * d_plus;
    std::uint16_t* pos = pos_.data() + u * d_plus;
    for (std::size_t k = 0; k < d_plus; ++k) {
      const std::int32_t p = order[k];
      DLB_REQUIRE(p >= 0 && p < d_plus_ &&
                      seen[static_cast<std::size_t>(p)] != u,
                  "prescribed port order is not a permutation");
      seen[static_cast<std::size_t>(p)] = u;
      pos[p] = static_cast<std::uint16_t>(k);
    }
  }

  if (!prescribed_rotors_.empty()) {
    for (std::size_t u = 0; u < n; ++u) {
      DLB_REQUIRE(prescribed_rotors_[u] >= 0 && prescribed_rotors_[u] < d_plus_,
                  "prescribed rotor out of range");
      rotor_[u] = prescribed_rotors_[u];
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
  const int r = static_cast<int>(load - q * d_plus_);
  const std::uint16_t* pos =
      pos_.data() + static_cast<std::size_t>(u) * d_plus_;
  int& rotor = rotor_[static_cast<std::size_t>(u)];

  // Every port gets the floor share; the r ports at cyclic positions
  // rotor, rotor+1, … (mod d⁺) get one extra token each.
  for (int p = 0; p < d_plus_; ++p) {
    flows[static_cast<std::size_t>(p)] =
        q + rotor_extra(pos[p], rotor, d_plus_, r);
  }
  rotor = rotor_advance(rotor, d_plus_, r);
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
      const std::uint16_t* pos =
          pos_.data() + static_cast<std::size_t>(u) * d_plus_;
      const int rotor = rotor_[static_cast<std::size_t>(u)];
      Load* const row = sink.row(u).data();
      for (int p = 0; p < d_plus_; ++p) {
        row[p] = q + rotor_extra(pos[p], rotor, d_plus_, r);
      }
      rotor_[static_cast<std::size_t>(u)] = rotor_advance(rotor, d_plus_, r);
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
  for (NodeId u = first; u < last; ++u, cur.advance()) {
    const Load x = loads[static_cast<std::size_t>(u)];
    DLB_REQUIRE(x >= 0, "RotorRouter cannot handle negative load");
    const Load q = div_.quot(x);
    const int r = static_cast<int>(x - q * d_plus_);
    const std::uint16_t* pos =
        pos_.data() + static_cast<std::size_t>(u) * d_plus_;
    const int rotor = rotor_[static_cast<std::size_t>(u)];

    // One add per real port carries its floor share and its extra; the
    // self-loop shares, their extras and the remainder stay local.
    Load sent_extras = 0;
    for (int p = 0; p < d; ++p) {
      const Load e = rotor_extra(pos[p], rotor, d_plus_, r);
      next[static_cast<std::size_t>(cur.neighbor(p))] += q + e;
      sent_extras += e;
    }
    next[static_cast<std::size_t>(u)] += x - q * d - sent_extras;
    rotor_[static_cast<std::size_t>(u)] = rotor_advance(rotor, d_plus_, r);
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
