// RAND-EXTRA: randomized distribution of excess tokens (Table 1 row 2).
//
// After the deterministic base share of ⌊x/d⁺⌋ per port, each of the
// e(u) = x mod d⁺ excess tokens is sent to an independently uniform port
// (original edge or self-loop). This is the diffusive scheme of
// Berenbrink–Cooper–Friedetzky–Friedrich–Sauerwald (SODA 2011): stateless
// and never negative, but randomized and only round-fair in expectation —
// a port can receive several extras in one step. Serves as the randomized
// baseline the paper's deterministic schemes are compared against.
#pragma once

#include <cstdint>

#include "core/balancer.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"

namespace dlb {

class RandomizedExtra : public Balancer {
 public:
  explicit RandomizedExtra(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  std::string name() const override { return "RAND-EXTRA"; }
  void reset(const Graph& graph, int d_loops) override;
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override;

  /// Snapshot state: the sequential RNG words — a restored run continues
  /// the exact random stream the captured one would have drawn.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  int d_plus_ = 0;
  FastModU64 port_;  // draws a port in [0, d⁺)
};

}  // namespace dlb
