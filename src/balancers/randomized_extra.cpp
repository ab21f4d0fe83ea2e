#include "balancers/randomized_extra.hpp"

#include <algorithm>

#include "util/assertions.hpp"
#include "util/intmath.hpp"

namespace dlb {

void RandomizedExtra::reset(const Graph& graph, int d_loops) {
  DLB_REQUIRE(d_loops >= 0, "RandomizedExtra: negative self-loop count");
  d_plus_ = graph.degree() + d_loops;
  port_ = FastModU64(static_cast<std::uint64_t>(d_plus_));
  rng_ = Rng(seed_);  // bit-reproducible runs: reseed on reset
}

void RandomizedExtra::decide(NodeId /*u*/, Load load, Step /*t*/,
                             std::span<Load> flows) {
  DLB_REQUIRE(load >= 0, "RandomizedExtra cannot handle negative load");
  const Load q = floor_div(load, d_plus_);
  const Load r = load - q * d_plus_;
  std::fill(flows.begin(), flows.end(), q);
  for (Load k = 0; k < r; ++k) {
    ++flows[static_cast<std::size_t>(rng_.uniform_u64(port_))];
  }
}


void RandomizedExtra::save_state(StateWriter& w) const {
  for (std::uint64_t word : rng_.state()) w.u64(word);
}

void RandomizedExtra::load_state(StateReader& r) {
  std::array<std::uint64_t, 4> words;
  for (auto& word : words) word = r.u64();
  rng_.set_state(words);
}

}  // namespace dlb
