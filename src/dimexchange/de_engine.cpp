#include "dimexchange/de_engine.hpp"

#include <utility>

#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

DimensionExchange::DimensionExchange(const Graph& g,
                                     std::vector<Matching> circuit,
                                     DePolicy policy, std::uint64_t seed,
                                     LoadVector initial)
    : g_(&g), circuit_(std::move(circuit)), policy_(policy),
      schedule_(DeSchedule::kCircuit), rng_(seed) {
  DLB_REQUIRE(!circuit_.empty(), "balancing circuit must be non-empty");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  for (const Matching& m : circuit_) validate_matching(g, m);
  adopt_loads(std::move(initial));
}

DimensionExchange::DimensionExchange(const Graph& g, DePolicy policy,
                                     std::uint64_t seed, LoadVector initial)
    : g_(&g), policy_(policy), schedule_(DeSchedule::kRandomMatching),
      rng_(seed) {
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  adopt_loads(std::move(initial));
}

void DimensionExchange::apply_pairs(const Matching& m, std::size_t first,
                                    std::size_t last,
                                    const std::uint8_t* odd_up) {
  for (std::size_t i = first; i < last; ++i) {
    const auto& [u, v] = m[i];
    Load& xu = loads_[static_cast<std::size_t>(u)];
    Load& xv = loads_[static_cast<std::size_t>(v)];
    const Load sum = xu + xv;
    const Load lo = floor_div(sum, 2);
    const Load hi = sum - lo;
    if (lo == hi) {
      xu = xv = lo;
      continue;
    }
    // kAverageDown: the previously richer node keeps the odd token (ties
    // cannot happen since the sum is odd). kRandomOrientation: the
    // pre-drawn coin decides.
    const bool u_gets_hi =
        odd_up == nullptr ? xu >= xv : odd_up[i] != 0;
    xu = u_gets_hi ? hi : lo;
    xv = u_gets_hi ? lo : hi;
  }
}

const Matching& DimensionExchange::round_matching(Matching& scratch) {
  if (schedule_ == DeSchedule::kCircuit) {
    return circuit_[static_cast<std::size_t>(
        time() % static_cast<Step>(circuit_.size()))];
  }
  scratch = random_matching(*g_, rng_);
  return scratch;
}

const std::uint8_t* DimensionExchange::draw_coins(const Matching& m) {
  if (policy_ != DePolicy::kRandomOrientation) return nullptr;
  // Decide phase: consume the RNG serially in matching order (coins are
  // drawn only for odd-sum pairs, one per odd pair — the stream order is
  // therefore identical however the apply phase is chunked); pairs are
  // disjoint, so reading both loads here is race-free.
  coin_.assign(m.size(), 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto& [u, v] = m[i];
    const Load sum = loads_[static_cast<std::size_t>(u)] +
                     loads_[static_cast<std::size_t>(v)];
    if (sum % 2 != 0) coin_[i] = rng_.bernoulli(0.5) ? 1 : 0;
  }
  return coin_.data();
}

void DimensionExchange::do_step() {
  Matching scratch;
  const Matching& m = round_matching(scratch);
  apply_pairs(m, 0, m.size(), draw_coins(m));
}

void DimensionExchange::do_step_parallel(ThreadPool& pool) {
  Matching scratch;
  const Matching& m = round_matching(scratch);
  const std::uint8_t* coins = draw_coins(m);
  // Apply phase: matched pairs are disjoint — range-parallel is safe.
  pool.for_ranges(static_cast<std::int64_t>(m.size()),
                  [&](std::int64_t first, std::int64_t last) {
                    apply_pairs(m, static_cast<std::size_t>(first),
                                static_cast<std::size_t>(last), coins);
                  });
}

}  // namespace dlb
