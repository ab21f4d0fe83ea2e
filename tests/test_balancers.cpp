// Behavioural tests for the individual balancers: decision arithmetic,
// convergence toward the average, and comparison against the continuous
// yardstick and the paper's bound formulas on small instances.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/experiment.hpp"
#include "balancers/continuous.hpp"
#include "balancers/randomized_extra.hpp"
#include "balancers/registry.hpp"
#include "balancers/rotor_router.hpp"
#include "balancers/rotor_router_star.hpp"
#include "balancers/send_floor.hpp"
#include "balancers/send_round.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "markov/spectral.hpp"
#include "util/assertions.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

// ------------------------------------------------- decision arithmetic --

TEST(SendFloorDecide, SplitsEvenlyAndKeepsExcess) {
  const Graph g = make_cycle(4);  // d = 2
  SendFloor b;
  b.reset(g, 2);  // d⁺ = 4
  LoadVector flows(4, -1);
  b.decide(0, 11, 0, flows);
  EXPECT_EQ(flows, (LoadVector{2, 2, 2, 2}));  // remainder 3
  b.decide(0, 3, 0, flows);
  EXPECT_EQ(flows, (LoadVector{0, 0, 0, 0}));  // all 3 kept
}

TEST(SendRoundDecide, RoundDownCase) {
  const Graph g = make_cycle(4);
  SendRound b;
  b.reset(g, 2);  // d⁺ = 4
  LoadVector flows(4, -1);
  // x = 9: q = 2, r = 1, nearest = 2 (2.25 -> 2); 1 extra on a self-loop.
  b.decide(0, 9, 0, flows);
  EXPECT_EQ(flows[0], 2);
  EXPECT_EQ(flows[1], 2);
  EXPECT_EQ(flows[2] + flows[3], 5);
  EXPECT_TRUE((flows[2] == 3 && flows[3] == 2) ||
              (flows[2] == 2 && flows[3] == 3));
}

TEST(SendRoundDecide, RoundUpCase) {
  const Graph g = make_cycle(4);
  SendRound b;
  b.reset(g, 2);
  LoadVector flows(4, -1);
  // x = 11: q = 2, r = 3, nearest = 3 (2.75 -> 3); originals get 3,
  // remaining 5 = q·d° + (r−d) = 4 + 1 splits 3,2 over self-loops.
  b.decide(0, 11, 0, flows);
  EXPECT_EQ(flows[0], 3);
  EXPECT_EQ(flows[1], 3);
  EXPECT_EQ(flows[2] + flows[3], 5);
  EXPECT_LE(std::max(flows[2], flows[3]), 3);
  EXPECT_GE(std::min(flows[2], flows[3]), 2);
}

TEST(SendRoundDecide, NeverOversends) {
  const Graph g = make_cycle(4);
  SendRound b;
  b.reset(g, 2);
  LoadVector flows(4);
  for (Load x = 0; x <= 200; ++x) {
    b.decide(0, x, 0, flows);
    Load sent = 0;
    for (Load f : flows) {
      EXPECT_GE(f, floor_div(x, 4));
      EXPECT_LE(f, ceil_div(x, 4));
      sent += f;
    }
    EXPECT_LE(sent, x);
    EXPECT_LT(x - sent, 4);  // remainder < d⁺
  }
}

TEST(RotorRouterDecide, DealsRoundRobinAndAdvances) {
  const Graph g = make_cycle(4);  // d = 2
  RotorRouter b(0);               // natural order, rotors at 0
  b.reset(g, 2);                  // d⁺ = 4
  LoadVector flows(4, -1);
  // x = 6: q = 1, r = 2 -> ports 0,1 get 2, ports 2,3 get 1; rotor -> 2.
  b.decide(0, 6, 0, flows);
  EXPECT_EQ(flows, (LoadVector{2, 2, 1, 1}));
  EXPECT_EQ(b.rotor(0), 2);
  // Next deal of 3: q = 0, r = 3 -> ports 2,3,0 get 1; rotor -> 1.
  b.decide(0, 3, 1, flows);
  EXPECT_EQ(flows, (LoadVector{1, 0, 1, 1}));
  EXPECT_EQ(b.rotor(0), 1);
}

TEST(RotorRouterDecide, ZeroLoadSendsNothingAndKeepsRotor) {
  const Graph g = make_cycle(4);
  RotorRouter b(0);
  b.reset(g, 2);
  LoadVector flows(4, -1);
  b.decide(2, 0, 0, flows);
  EXPECT_EQ(flows, (LoadVector{0, 0, 0, 0}));
  EXPECT_EQ(b.rotor(2), 0);
}

TEST(RotorRouterDecide, ExactMultipleAdvancesNothing) {
  const Graph g = make_cycle(4);
  RotorRouter b(0);
  b.reset(g, 2);
  LoadVector flows(4, -1);
  b.decide(0, 8, 0, flows);
  EXPECT_EQ(flows, (LoadVector{2, 2, 2, 2}));
  EXPECT_EQ(b.rotor(0), 0);
}

TEST(RotorRouterStarDecide, SpecialLoopAlwaysGetsCeil) {
  const Graph g = make_cycle(4);  // d = 2, d⁺ = 4
  RotorRouterStar b(0);
  b.reset(g, 2);
  LoadVector flows(4, -1);
  // x = 7: q = 1, r = 3; special (port 3) gets 2; rest 5 = q·3 + 2 over
  // ports {0,1,2}: two of them get 2.
  b.decide(0, 7, 0, flows);
  EXPECT_EQ(flows[3], 2);
  EXPECT_EQ(flows[0] + flows[1] + flows[2], 5);
  for (int p = 0; p < 3; ++p) {
    EXPECT_GE(flows[static_cast<std::size_t>(p)], 1);
    EXPECT_LE(flows[static_cast<std::size_t>(p)], 2);
  }
  // x = 8: exact multiple; everyone gets exactly 2.
  b.decide(0, 8, 1, flows);
  EXPECT_EQ(flows, (LoadVector{2, 2, 2, 2}));
}

TEST(RotorRouterStarDecide, DealsEntireLoad) {
  const Graph g = make_torus2d(3, 3);  // d = 4
  RotorRouterStar b(0);
  b.reset(g, 4);
  LoadVector flows(8);
  for (Load x = 0; x <= 100; ++x) {
    b.decide(0, x, 0, flows);
    Load sent = 0;
    for (Load f : flows) sent += f;
    EXPECT_EQ(sent, x);  // no remainder: the star deals every token
    for (Load f : flows) {
      EXPECT_GE(f, floor_div(x, 8));
      EXPECT_LE(f, ceil_div(x, 8));
    }
  }
}

// ------------------------------------------- rotor dealing: per-port test --

/// The cyclic walk ROTOR-ROUTER dealt its extras by before the per-port
/// test, kept here as the reference: every port gets q, then the r ports
/// order[rotor], order[rotor + 1], … (mod d⁺) one extra each. Returns the
/// advanced rotor.
int walk_deal(const std::int32_t* order, int d_plus, int rotor, Load q,
              int r, LoadVector& flows) {
  flows.assign(static_cast<std::size_t>(d_plus), q);
  for (int k = 0; k < r; ++k) {
    ++flows[static_cast<std::size_t>(order[(rotor + k) % d_plus])];
  }
  return (rotor + r) % d_plus;
}

/// A few cyclic orders of d⁺ ports: identity, reversed, and seeded
/// shuffles.
std::vector<std::vector<std::int32_t>> sample_orders(int d_plus) {
  std::vector<std::int32_t> identity(static_cast<std::size_t>(d_plus));
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<std::vector<std::int32_t>> out{
      identity, {identity.rbegin(), identity.rend()}};
  for (std::uint64_t seed : {3, 11}) {
    Rng rng(seed);
    std::vector<std::int32_t> shuffled = identity;
    rng.shuffle(shuffled);
    out.push_back(std::move(shuffled));
  }
  return out;
}

TEST(RotorRouterDecide, PerPortTestMatchesTheCyclicWalk) {
  // Every d⁺ (up to one above the u8 range), every rotor, every r < d⁺,
  // several orders: decide() must deal exactly the walk's flows and leave
  // the rotor where the walk does. K2 has d = 1, so d⁺ − 1 self-loops
  // give any d⁺ >= 1.
  const Graph g = make_complete(2);
  for (int d_plus : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 40, 300}) {
    for (const std::vector<std::int32_t>& order : sample_orders(d_plus)) {
      std::vector<std::int32_t> both = order;  // node 1 serves reversed
      both.insert(both.end(), order.rbegin(), order.rend());
      RotorRouter b(0);
      b.set_port_order(both);
      b.reset(g, d_plus - 1);
      int rotor = 0;
      LoadVector flows(static_cast<std::size_t>(d_plus));
      LoadVector expected;
      const auto deal = [&](int r) {
        const Load q = r % 3;
        b.decide(0, q * d_plus + r, 0, flows);
        rotor = walk_deal(order.data(), d_plus, rotor, q, r, expected);
        ASSERT_EQ(flows, expected) << "d⁺=" << d_plus << " r=" << r;
        ASSERT_EQ(b.rotor(0), rotor) << "d⁺=" << d_plus << " r=" << r;
      };
      // From each rotor position: deal r, deal back round to the same
      // position, then step the rotor on by one.
      for (int start = 0; start < d_plus; ++start) {
        ASSERT_EQ(rotor, start);
        for (int r = 0; r < d_plus; ++r) {
          ASSERT_NO_FATAL_FAILURE(deal(r));
          ASSERT_NO_FATAL_FAILURE(deal((d_plus - r) % d_plus));
        }
        ASSERT_NO_FATAL_FAILURE(deal(1 % d_plus));
        if (d_plus == 1) break;
      }
      EXPECT_EQ(b.rotor(1), 0);  // node 1 never dealt
    }
  }
}

TEST(RotorRouterStarDecide, PerPortTestMatchesTheCyclicWalk) {
  // ROTOR-ROUTER*: the special port 2d−1 takes the ceiling, and the rotor
  // deals r−1 extras over ports [0, 2d−1) in port order.
  for (int d : {1, 2, 3, 4, 8}) {
    const Graph g = make_complete(d + 1);
    const int d_plus = 2 * d;
    const int ports = d_plus - 1;
    std::vector<std::int32_t> order(static_cast<std::size_t>(ports));
    std::iota(order.begin(), order.end(), 0);
    RotorRouterStar b(0);
    b.reset(g, d);
    int rotor = 0;
    LoadVector flows(static_cast<std::size_t>(d_plus));
    LoadVector expected;
    for (int pass = 0; pass < ports; ++pass) {  // the rotor keeps moving
      for (int r = 0; r < d_plus; ++r) {
        const Load q = r % 3;
        b.decide(0, q * d_plus + r, 0, flows);
        const int extras = r > 0 ? r - 1 : 0;
        rotor = walk_deal(order.data(), ports, rotor, q, extras, expected);
        expected.push_back(q + (r > 0 ? 1 : 0));
        // A drifted rotor shows in the next deal's flows.
        ASSERT_EQ(flows, expected) << "d=" << d << " r=" << r;
      }
    }
  }
}

/// Forces decide() per node: inherits the default decide_range.
class DecideOnly : public Balancer {
 public:
  explicit DecideOnly(Balancer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void reset(const Graph& g, int d_loops) override { inner_.reset(g, d_loops); }
  void decide(NodeId u, Load load, Step t, std::span<Load> flows) override {
    inner_.decide(u, load, t, flows);
  }

 private:
  Balancer& inner_;
};

class NoopObserver : public StepObserver {
 public:
  void on_step(Step, const Graph&, int, std::span<const Load>,
               std::span<const Load>, std::span<const Load>) override {}
};

TEST(RotorRouterKernels, ScatterRowAndDecideAgreeAbove256Ports) {
  // d⁺ = 302 > 256: a cyclic position no longer fits a byte. The scatter
  // kernel (no observer), the row kernel (observer attached) and decide()
  // per node must move the same loads and leave the same rotors.
  const Graph g = make_cycle(24);
  const int d_loops = 300;
  const LoadVector initial = random_initial(g.num_nodes(), 5000, 17);
  const EngineConfig config{.self_loops = d_loops};
  RotorRouter scatter_b(9), row_b(9), decide_b(9);
  DecideOnly decide_only(decide_b);
  Engine scatter(g, config, scatter_b, initial);
  Engine row(g, config, row_b, initial);
  Engine per_node(g, config, decide_only, initial);
  NoopObserver force_rows;
  row.add_observer(force_rows);
  for (Step t = 0; t < 40; ++t) {
    scatter.step();
    row.step();
    per_node.step();
    ASSERT_EQ(scatter.loads(), per_node.loads()) << "scatter, step " << t + 1;
    ASSERT_EQ(row.loads(), per_node.loads()) << "row, step " << t + 1;
  }
  EXPECT_FALSE(scatter.flows_materialized());
  EXPECT_TRUE(row.flows_materialized());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(scatter_b.rotor(u), decide_b.rotor(u)) << "node " << u;
    EXPECT_EQ(row_b.rotor(u), decide_b.rotor(u)) << "node " << u;
  }
}

/// Expects `reset` to throw an invariant_error whose message holds
/// `needle`.
void expect_reset_refused(RotorRouter& b, const Graph& g, int d_loops,
                          const std::string& needle) {
  try {
    b.reset(g, d_loops);
    ADD_FAILURE() << "reset accepted; expected \"" << needle << "\"";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(RotorRouterReset, PortCountIsCappedAt65536) {
  // 65536 ports is the most a 16-bit cyclic position can index.
  const Graph g = make_cycle(3);  // d = 2
  RotorRouter widest(4);
  widest.reset(g, 65534);  // d⁺ = 65536
  const Load x = 3 * Load{65536} + 65535;
  LoadVector flows(65536);
  widest.decide(0, x, 0, flows);
  Load sent = 0;
  for (Load f : flows) {
    ASSERT_GE(f, 3);
    ASSERT_LE(f, 4);
    sent += f;
  }
  EXPECT_EQ(sent, x);
  RotorRouter too_wide(4);
  expect_reset_refused(too_wide, g, 65535, "more than 65536 ports");
}

TEST(RotorRouterReset, RefusesMalformedPrescriptions) {
  const Graph g = make_cycle(3);  // d⁺ = 4 with two self-loops
  const std::vector<std::int32_t> good = {0, 1, 2, 3, 3, 2, 1, 0,
                                          2, 0, 3, 1};
  const auto with_order = [](std::vector<std::int32_t> order) {
    RotorRouter b(0);
    b.set_port_order(std::move(order));
    return b;
  };
  const auto with_rotors = [](std::vector<int> rotors) {
    RotorRouter b(5);
    b.set_initial_rotors(std::move(rotors));
    return b;
  };
  {
    RotorRouter ok = with_order(good);
    ok.reset(g, 2);
  }
  std::vector<std::int32_t> dup = good;
  dup[5] = 3;  // node 1 serves port 3 twice and port 2 never
  RotorRouter b = with_order(dup);
  expect_reset_refused(b, g, 2, "not a permutation");
  for (std::int32_t bad_port : {-1, 4, 1 << 20}) {
    std::vector<std::int32_t> out_of_range = good;
    out_of_range[9] = bad_port;
    b = with_order(out_of_range);
    expect_reset_refused(b, g, 2, "not a permutation");
  }
  std::vector<std::int32_t> short_order(good.begin(), good.end() - 1);
  b = with_order(short_order);
  expect_reset_refused(b, g, 2, "wrong size");
  b = with_order(good);
  expect_reset_refused(b, g, 3, "wrong size");  // d⁺ = 5 needs 15 entries

  b = with_rotors({0, 1, 2});
  b.reset(g, 2);
  EXPECT_EQ(b.rotor(2), 2);
  b = with_rotors({0, 1});
  expect_reset_refused(b, g, 2, "wrong size");
  b = with_rotors({0, 1, 2, 3});
  expect_reset_refused(b, g, 2, "wrong size");
  b = with_rotors({0, -1, 2});
  expect_reset_refused(b, g, 2, "out of range");
  b = with_rotors({0, 1, 4});
  expect_reset_refused(b, g, 2, "out of range");
}

// ----------------------------------------- seeded draws: known answers --
//
// Hashes recorded from the division-based draws, so the remainder-helper
// draws of reset() and decide() stay bit-identical to them. The graphs
// give d⁺ ∈ {2, 3, 4} on the cycle and {4, 5, 8} on the torus and the
// hypercube: powers of two and not.

/// FNV-1a over the little-endian bytes of `v`, continuing from `h`.
std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::vector<Graph> known_answer_graphs() {
  std::vector<Graph> out;
  out.push_back(make_cycle(101));
  out.push_back(make_torus2d(37, 41));
  out.push_back(make_hypercube(4));
  return out;
}

/// Folds every node's decide() row at load `load(u, d⁺)` into `h`.
template <class LoadOf>
std::uint64_t hash_rows(Balancer& b, const Graph& g, int d_plus, Step t,
                        std::uint64_t h, LoadOf load) {
  LoadVector flows(static_cast<std::size_t>(d_plus));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    b.decide(u, load(u, d_plus), t, flows);
    for (Load f : flows) h = fnv_word(h, static_cast<std::uint64_t>(f));
  }
  return h;
}

TEST(RotorRouterReset, SeededOrdersAndRotorsKnownAnswers) {
  // Per (seed, graph, d°): the hash of the rotors after reset, then of
  // every node's row at load d⁺−1, then of d⁺ rounds of rows at load 1,
  // which deal one token to each port in cyclic order and so pin every
  // node's permutation.
  const std::uint64_t want[2][3][3][2] = {
      {{{0x9e55e8dc03f75504ULL, 0xc9acadb408de8004ULL},
        {0x1cd68e50ce5e6f44ULL, 0x9bcbe46558c003c4ULL},
        {0x32c827b3e315c245ULL, 0x3cde08277ecc4124ULL}},
       {{0x2aceb9372b020184ULL, 0xa9923d52ff4b6e24ULL},
        {0xccfca1e051dc4786ULL, 0x23396a419537d084ULL},
        {0xa8c61c29b7391da4ULL, 0x94b038f636c45f84ULL}},
       {{0x9a88051ff2683aa5ULL, 0x977ce8a343330945ULL},
        {0xf11936670e36ada1ULL, 0x7d5ca669181f6165ULL},
        {0x97c3cf788ce2cf84ULL, 0x6ddd426f583588c5ULL}}},
      {{{0xb170d269addd26c5ULL, 0xdcbcb798729eba64ULL},
        {0xf117c1e71b1120c6ULL, 0xdf0c7b5f9b49b784ULL},
        {0x2d0435628753e3e5ULL, 0x461ad03939913da4ULL}},
       {{0x79e502ab3b2550c6ULL, 0x2581845ed3a74b44ULL},
        {0x61ae791b9105ebe0ULL, 0xb85ff038cdece984ULL},
        {0x835e6c4c413f58c7ULL, 0x8fbaa8aabd43e944ULL}},
       {{0xf4577f3ce9725804ULL, 0x12aacc37dbbb6145ULL},
        {0xb43eee88786d1a24ULL, 0xbc0f432e438d9125ULL},
        {0x4012bca8552d6aa2ULL, 0x7989fa5b1a88ff65ULL}}}};
  const std::uint64_t seeds[] = {1, 42};
  const std::vector<Graph> graphs = known_answer_graphs();
  for (int s = 0; s < 2; ++s) {
    for (int gi = 0; gi < 3; ++gi) {
      const Graph& g = graphs[static_cast<std::size_t>(gi)];
      const int d = g.degree();
      const int loops[] = {0, 1, d};
      for (int li = 0; li < 3; ++li) {
        RotorRouter b(seeds[s]);
        b.reset(g, loops[li]);
        std::uint64_t rotors = kFnvBasis;
        for (NodeId u = 0; u < g.num_nodes(); ++u) {
          rotors = fnv_word(rotors, static_cast<std::uint64_t>(b.rotor(u)));
        }
        const int d_plus = d + loops[li];
        std::uint64_t rows =
            hash_rows(b, g, d_plus, 0, kFnvBasis,
                      [](NodeId, int dp) { return Load{dp - 1}; });
        for (int k = 0; k < d_plus; ++k) {
          rows = hash_rows(b, g, d_plus, 0, rows,
                           [](NodeId, int) { return Load{1}; });
        }
        const std::string where = "seed " + std::to_string(seeds[s]) + " " +
                                  g.name() + " d° " +
                                  std::to_string(loops[li]);
        EXPECT_EQ(rotors, want[s][gi][li][0]) << where << " rotors";
        EXPECT_EQ(rows, want[s][gi][li][1]) << where << " rows";
      }
    }
  }
}

TEST(RotorRouterStarReset, SeededRotorsKnownAnswers) {
  // Rows at load 2d−2 deal 2d−3 extras over the 2d−1 rotor ports, so the
  // ports left out pin every seeded rotor.
  const std::uint64_t want[2][3] = {
      {0xb391702a479e7885ULL, 0x9f366936aea82705ULL, 0x66bc89b767422725ULL},
      {0x59ec51cb7e6092e5ULL, 0x3bed0e8e2d832d05ULL, 0x133ce6dbb3a12f65ULL}};
  const std::uint64_t seeds[] = {1, 42};
  const std::vector<Graph> graphs = known_answer_graphs();
  for (int s = 0; s < 2; ++s) {
    for (int gi = 0; gi < 3; ++gi) {
      const Graph& g = graphs[static_cast<std::size_t>(gi)];
      RotorRouterStar b(seeds[s]);
      b.reset(g, g.degree());
      const std::uint64_t rows =
          hash_rows(b, g, 2 * g.degree(), 0, kFnvBasis,
                    [](NodeId, int d_plus) { return Load{d_plus - 2}; });
      EXPECT_EQ(rows, want[s][gi]) << "seed " << seeds[s] << " " << g.name();
    }
  }
}

TEST(RandomizedExtraDecide, SeededExtrasKnownAnswers) {
  // Three rounds of rows at load u mod 3d⁺, every remainder 0..d⁺−1 drawn.
  const std::uint64_t want[2][3][3] = {
      {{0x51c03ba9e4ecc8a7ULL, 0xebb6e6508f72fee0ULL, 0x8143a6e0f9e685e1ULL},
       {0x1c5503b3753c2ee7ULL, 0xca1b1fc8de2226e1ULL, 0x80cdf702e6edab47ULL},
       {0x274f3ce430608a87ULL, 0xf6884dea49b8b4e2ULL, 0x3a41da870802d6a1ULL}},
      {{0xbf4d46411afb4647ULL, 0xee04ad497a348f26ULL, 0xa1e15e654f885605ULL},
       {0x1d58db31c35c4e87ULL, 0x1ff8030890148703ULL, 0xf742f3d0bfa61483ULL},
       {0x4e5c737d2895e621ULL, 0x2897440ea942ccc4ULL, 0xf153fab42a059b87ULL}}};
  const std::uint64_t seeds[] = {1, 42};
  const std::vector<Graph> graphs = known_answer_graphs();
  for (int s = 0; s < 2; ++s) {
    for (int gi = 0; gi < 3; ++gi) {
      const Graph& g = graphs[static_cast<std::size_t>(gi)];
      const int d = g.degree();
      const int loops[] = {0, 1, d};
      for (int li = 0; li < 3; ++li) {
        RandomizedExtra b(seeds[s]);
        b.reset(g, loops[li]);
        std::uint64_t h = kFnvBasis;
        for (Step t = 0; t < 3; ++t) {
          h = hash_rows(b, g, d + loops[li], t, h, [](NodeId u, int d_plus) {
            return Load{u % (3 * d_plus)};
          });
        }
        EXPECT_EQ(h, want[s][gi][li])
            << "seed " << seeds[s] << " " << g.name() << " d° " << loops[li];
      }
    }
  }
}

// ------------------------------------------------- continuous process --

TEST(Continuous, ConvergesToUniform) {
  const Graph g = make_hypercube(5);
  ContinuousDiffusion c(g, 5, point_mass_initial(g.num_nodes(), 3200));
  c.run(500);
  EXPECT_LT(c.discrepancy(), 1e-6);
  EXPECT_NEAR(c.total(), 3200.0, 1e-6);
  for (double v : c.loads()) EXPECT_NEAR(v, 100.0, 1e-6);
}

TEST(Continuous, DiscrepancyDecaysGeometrically) {
  const Graph g = make_cycle(16);
  ContinuousDiffusion c(g, 2, bimodal_initial(g.num_nodes(), 64));
  const double d0 = c.discrepancy();
  c.run(50);
  const double d1 = c.discrepancy();
  c.run(50);
  const double d2 = c.discrepancy();
  EXPECT_LT(d1, d0);
  EXPECT_LT(d2, d1);
  // Decay ratio roughly constant (Markov contraction).
  EXPECT_LT(d2 / d1, 1.0);
}

// ----------------------------------------- convergence vs paper bounds --

class ConvergenceTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ConvergenceTest, ReachesThm23BoundOnHypercubeAfterT) {
  const Algorithm algo = GetParam();
  const int dim = 6;
  const Graph g = make_hypercube(dim);
  const int d = g.degree();
  const int d_loops = d;
  const double mu = 1.0 - lambda2_hypercube(dim, d_loops);

  auto balancer = make_balancer(algo, 17);
  ExperimentSpec spec;
  spec.self_loops = d_loops;
  spec.run_continuous = false;
  const ExperimentResult r = run_experiment(
      g, *balancer, bimodal_initial(g.num_nodes(), 256), mu, spec);

  // All cumulatively fair schemes satisfy Thm 2.3(i); with constant 4 the
  // bound also absorbs the randomized baselines on this instance.
  const double bound = 4.0 * bound_thm23_sqrt_log(1.0, d, g.num_nodes(), mu);
  EXPECT_LE(static_cast<double>(r.final_discrepancy), bound)
      << algorithm_name(algo);
}

INSTANTIATE_TEST_SUITE_P(
    CumulativelyFair, ConvergenceTest,
    ::testing::Values(Algorithm::kSendFloor, Algorithm::kSendRound,
                      Algorithm::kRotorRouter, Algorithm::kRotorRouterStar));

TEST(Convergence, GoodBalancersReachThm33LevelGivenLongerRun) {
  const Graph g = make_torus2d(6, 6);
  const int d = g.degree();
  const double mu = 1.0 - lambda2_torus({6, 6}, d);
  const Load thm33 = bound_thm33_discrepancy(1, 2 * d, d);

  for (Algorithm algo : {Algorithm::kRotorRouterStar, Algorithm::kSendRound}) {
    auto balancer = make_balancer(algo, 23);
    ExperimentSpec spec;
    spec.self_loops = d;
    spec.time_multiplier = 4.0;  // Thm 3.3 horizon: O(T + d·log²n/µ)
    spec.run_continuous = false;
    const ExperimentResult r = run_experiment(
        g, *balancer, bimodal_initial(g.num_nodes(), 360), mu, spec);
    EXPECT_LE(r.final_discrepancy, thm33) << algorithm_name(algo);
  }
}

TEST(Convergence, DiscreteTracksContinuousWithinDeviation) {
  // The core of the Rabani et al. technique: the discrete process stays
  // within an additive deviation of the continuous one. After T both are
  // near-flat, so the discrete discrepancy is small even though the
  // continuous one is ~0.
  const Graph g = make_hypercube(6);
  RotorRouter b(1);
  ExperimentSpec spec;
  spec.self_loops = 6;
  const double mu = 1.0 - lambda2_hypercube(6, 6);
  const ExperimentResult r = run_experiment(
      g, b, point_mass_initial(g.num_nodes(), 64 * g.num_nodes()), mu, spec);
  EXPECT_LT(r.continuous_final_discrepancy, 1e-6);
  EXPECT_LE(r.final_discrepancy, 4 * g.degree());
}

TEST(Convergence, SamplesAreMonotoneOnAverageForRotor) {
  // Sanity: discrepancy at T/4 is no worse than the initial discrepancy,
  // and the final is no worse than twice the T/4 sample (noise margin).
  const Graph g = make_hypercube(6);
  RotorRouter b(5);
  ExperimentSpec spec;
  spec.self_loops = 6;
  spec.sample_fractions = {0.25, 0.5, 1.0};
  const double mu = 1.0 - lambda2_hypercube(6, 6);
  const ExperimentResult r = run_experiment(
      g, b, bimodal_initial(g.num_nodes(), 512), mu, spec);
  ASSERT_EQ(r.samples.size(), 3u);
  EXPECT_LE(r.samples[0].second, r.initial_discrepancy);
  EXPECT_LE(r.final_discrepancy, 2 * r.samples[0].second + 2 * g.degree());
}

}  // namespace
}  // namespace dlb
