// Unit tests for the util layer: rng, intmath, stats, csv, assertions,
// and the aligned / huge-page allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/alloc.hpp"
#include "util/assertions.hpp"
#include "util/csv.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ---------------------------------------------------------------- rng --

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformU64StaysBelowBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformIntCoversClosedRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += rng.bernoulli(0.5);
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

/// FNV-1a over the little-endian bytes of `v`, continuing from `h`.
std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Known answers: the hash of the first 64 bounded draws from Rng(2015),
// then of the next raw word (which pins how many draws were rejected).
// 2⁶³+1 rejects about half its draws; 2⁶⁴−1 rejects only r = 0. Both
// overloads must give the recorded stream.
TEST(Rng, UniformU64KnownAnswers) {
  const struct {
    std::uint64_t bound, hash;
  } cases[] = {
      {1, 0xe6f8593a9e49d412ULL},
      {2, 0x682ed975c06c7392ULL},
      {3, 0x604f433a631fc2b2ULL},
      {7, 0xffd10ec34f09fa6fULL},
      {8, 0x4638a0e4db6718bcULL},
      {1001, 0x65a7dc68603d3c5cULL},
      {(std::uint64_t{1} << 32) + 1, 0x18dbca791200f069ULL},
      {(std::uint64_t{1} << 63) + 1, 0x8d4ea907b8b33f9eULL},
      {~std::uint64_t{0}, 0x0536a2bc7d03af87ULL},
  };
  for (const auto& c : cases) {
    Rng plain(2015), fast(2015);
    const FastModU64 bound(c.bound);
    std::uint64_t h_plain = kFnvBasis, h_fast = kFnvBasis;
    for (int i = 0; i < 64; ++i) {
      h_plain = fnv_word(h_plain, plain.uniform_u64(c.bound));
      h_fast = fnv_word(h_fast, fast.uniform_u64(bound));
    }
    h_plain = fnv_word(h_plain, plain.next());
    h_fast = fnv_word(h_fast, fast.next());
    EXPECT_EQ(h_plain, c.hash) << "bound " << c.bound;
    EXPECT_EQ(h_fast, c.hash) << "bound " << c.bound << " (FastModU64)";
  }
}

TEST(Rng, ShuffleKnownAnswers) {
  const struct {
    std::vector<int> shuffled;
    std::uint64_t next;
  } cases[] = {
      {{2, 7, 3, 4, 1, 5, 0, 6}, 0x82410b221db78af7ULL},
      {{4, 8, 7, 1, 0, 12, 9, 2, 11, 6, 10, 5, 3}, 0xbfdf11cec8ec5c4aULL},
  };
  for (const auto& c : cases) {
    Rng rng(2015);
    std::vector<int> v(c.shuffled.size());
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(v);
    EXPECT_EQ(v, c.shuffled) << v.size() << " elements";
    EXPECT_EQ(rng.next(), c.next) << v.size() << " elements";
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Child stream should not replicate the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == child.next());
  EXPECT_LT(equal, 4);
}

// ------------------------------------------------------------ intmath --

TEST(IntMath, FloorDivMatchesMathematicalFloor) {
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(floor_div(-7, 3), -3);
  EXPECT_EQ(floor_div(-6, 3), -2);
  EXPECT_EQ(floor_div(0, 5), 0);
}

TEST(IntMath, CeilDivMatchesMathematicalCeil) {
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_EQ(ceil_div(-7, 3), -2);
  EXPECT_EQ(ceil_div(-6, 3), -2);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(IntMath, FloorModAlwaysNonNegative) {
  for (std::int64_t a = -20; a <= 20; ++a) {
    for (std::int64_t b : {1, 2, 3, 7}) {
      const auto m = floor_mod(a, b);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, b);
      EXPECT_EQ(floor_div(a, b) * b + m, a);
    }
  }
}

TEST(IntMath, RoundNearestTiesUp) {
  EXPECT_EQ(round_nearest_div(5, 2), 3);   // 2.5 -> 3
  EXPECT_EQ(round_nearest_div(4, 2), 2);
  EXPECT_EQ(round_nearest_div(7, 4), 2);   // 1.75 -> 2
  EXPECT_EQ(round_nearest_div(5, 4), 1);   // 1.25 -> 1
  EXPECT_EQ(round_nearest_div(-5, 2), -2); // -2.5 -> -2 (ties up)
  EXPECT_EQ(round_nearest_div(-7, 4), -2); // -1.75 -> -2
}

TEST(IntMath, NonNegDivMatchesHardwareDivision) {
  // Power-of-two divisors take the shift/mask fast path, the others the
  // hardware division path; both must agree with plain '/' and '%' for
  // every non-negative dividend.
  for (std::int64_t d : {1, 2, 4, 8, 16, 1024, 3, 5, 7, 12, 100}) {
    const NonNegDiv div(d);
    EXPECT_EQ(div.divisor(), d);
    for (std::int64_t x :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{6}, std::int64_t{7},
          std::int64_t{8}, std::int64_t{1000}, std::int64_t{12345678},
          std::int64_t{1} << 62}) {
      EXPECT_EQ(div.quot(x), x / d) << "x=" << x << " d=" << d;
      EXPECT_EQ(div.rem(x), x % d) << "x=" << x << " d=" << d;
      EXPECT_EQ(div.quot(x) * d + div.rem(x), x) << "x=" << x << " d=" << d;
    }
  }
}

TEST(IntMath, FastModU64MatchesHardwareRemainder) {
  // 10⁶ (x, b) pairs: fixed divisors at the edges (1, powers of two, 2³²
  // and 2⁶⁴ neighbours) and random divisors of every bit width, each
  // against dividends at multiples of b and their neighbours — where a
  // reciprocal rounded the wrong way first shows — and random ones.
  Rng rng(29);
  std::vector<std::uint64_t> divisors = {
      1, 2, 3, 4, 5, 7, 8, 1001, 1024, (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 1,
      std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1,
      ~std::uint64_t{0} - 1, ~std::uint64_t{0}};
  while (divisors.size() < 50000) {
    const std::uint64_t b = rng.next() >> rng.uniform_u64(64);
    if (b != 0) divisors.push_back(b);
  }
  for (std::uint64_t b : divisors) {
    const FastModU64 mod(b);
    ASSERT_EQ(mod.divisor(), b);
    const std::uint64_t k = ~std::uint64_t{0} / b;  // largest multiple index
    const std::uint64_t m1 = b * (1 + rng.uniform_u64(k));
    const std::uint64_t xs[] = {0, 1, b - 1, b, m1 - 1, m1, m1 + 1,
                                b * k, ~std::uint64_t{0}, rng.next(),
                                rng.next(), rng.next(), rng.next(),
                                rng.next(), rng.next(), rng.next(),
                                rng.next(), rng.next(), rng.next(),
                                rng.next()};
    for (std::uint64_t x : xs) {
      ASSERT_EQ(mod.rem(x), x % b) << "x=" << x << " b=" << b;
    }
  }
}

TEST(IntMath, FastModU64RejectsZeroDivisor) {
  EXPECT_THROW(FastModU64(0), invariant_error);
  EXPECT_EQ(FastModU64().rem(12345), 0u);
}

TEST(IntMath, NonNegDivRejectsNonPositiveDivisor) {
  EXPECT_THROW(NonNegDiv(0), invariant_error);
  EXPECT_THROW(NonNegDiv(-4), invariant_error);
}

class IntMathPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IntMathPropertyTest, FloorCeilRelation) {
  const std::int64_t b = GetParam();
  for (std::int64_t a = -50; a <= 50; ++a) {
    EXPECT_LE(floor_div(a, b), ceil_div(a, b));
    EXPECT_LE(ceil_div(a, b) - floor_div(a, b), 1);
    EXPECT_EQ(floor_div(a, b) == ceil_div(a, b), a % b == 0);
    const auto nearest = round_nearest_div(a, b);
    EXPECT_GE(nearest, floor_div(a, b));
    EXPECT_LE(nearest, ceil_div(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Divisors, IntMathPropertyTest,
                         ::testing::Values<std::int64_t>(1, 2, 3, 4, 5, 7, 8,
                                                         12, 16, 31));

// -------------------------------------------------------------- stats --

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MeanAndMedian) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, OlsSlopeRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(ols_slope(x, y), 3.0, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4}, y{2, 4, 6, 8}, z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(mean({}), invariant_error);
  EXPECT_THROW(median({}), invariant_error);
}

// ---------------------------------------------------------------- csv --

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row({"1", "2"});
  w.row({"x", "y"});
  EXPECT_EQ(out.str(), "a,b\n1,2\nx,y\n");
  EXPECT_EQ(w.rows_written(), 3u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, EscapeHandlesCarriageReturnAndMixedSpecials) {
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
  // Custom ShapeCase/WorkloadCase names can carry both commas and quotes
  // (e.g. poisson(in=0.5,out=0.5) or a "quoted" label): the field must be
  // wrapped and every inner quote doubled, per RFC 4180.
  EXPECT_EQ(CsvWriter::escape("poisson(in=0.5,out=0.5)"),
            "\"poisson(in=0.5,out=0.5)\"");
  EXPECT_EQ(CsvWriter::escape("say \"a,b\""), "\"say \"\"a,b\"\"\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, RowsQuoteFieldsEndToEnd) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"name", "value"});
  w.row({"counter(in=1/4,out=1/4)", "7"});
  EXPECT_EQ(out.str(), "name,value\n\"counter(in=1/4,out=1/4)\",7\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), invariant_error);
}

TEST(Csv, RowBeforeHeaderThrows) {
  std::ostringstream out;
  CsvWriter w(out);
  EXPECT_THROW(w.row({"x"}), invariant_error);
}

// --------------------------------------------------------- assertions --

TEST(Assertions, RequireThrowsWithMessage) {
  try {
    DLB_REQUIRE(1 == 2, "custom context");
    FAIL() << "expected invariant_error";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Assertions, RequirePassesSilently) {
  EXPECT_NO_THROW(DLB_REQUIRE(2 + 2 == 4, "math works"));
}

// ---------------------------------------------------------- allocator --

using HugeAlloc = AlignedAllocator<std::int64_t>;
constexpr std::size_t kHugeElems = kHugeThreshold / sizeof(std::int64_t);

std::uintptr_t address(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(AlignedAllocator, EightConsecutiveHugeAllocationsTakeDistinctColours) {
  HugeAlloc alloc;
  std::vector<std::int64_t*> blocks;
  std::set<std::uintptr_t> page_offsets;
  for (int i = 0; i < 8; ++i) {
    std::int64_t* p = alloc.allocate(kHugeElems);
    // The whole requested range is usable.
    p[0] = i;
    p[kHugeElems - 1] = i;
    EXPECT_EQ(address(p) % kCacheLineBytes, 0u) << "allocation " << i;
    // The colour lives in the first page; the mapping itself starts on a
    // huge-page boundary so no partial huge page is left at its head.
    EXPECT_EQ((address(p) & ~std::uintptr_t{4095}) % kHugePageBytes, 0u)
        << "allocation " << i;
    page_offsets.insert(address(p) % 4096);
    blocks.push_back(p);
  }
  EXPECT_EQ(page_offsets.size(), 8u)
      << "two of eight consecutive huge allocations share a page offset";
  for (std::int64_t* p : blocks) alloc.deallocate(p, kHugeElems);
}

TEST(AlignedAllocator, SubThresholdAllocationsStayOnTheHeapPath) {
  HugeAlloc alloc;
  const std::uint64_t huge_before = alloc_stats().huge_allocs;
  for (std::size_t elems : {std::size_t{1}, std::size_t{1000},
                            kHugeElems - 1}) {
    std::int64_t* p = alloc.allocate(elems);
    p[elems - 1] = 7;
    EXPECT_EQ(address(p) % kCacheLineBytes, 0u) << elems << " elements";
    alloc.deallocate(p, elems);
  }
  EXPECT_EQ(alloc_stats().huge_allocs, huge_before);
  std::int64_t* p = alloc.allocate(kHugeElems);
  EXPECT_EQ(alloc_stats().huge_allocs, huge_before + 1);
  alloc.deallocate(p, kHugeElems);
}

/// Number of mappings and their total size, from /proc/self/maps.
struct MapsFootprint {
  std::size_t mappings = 0;
  std::uintptr_t bytes = 0;
};

MapsFootprint maps_footprint() {
  MapsFootprint out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    const std::size_t dash = line.find('-');
    const std::size_t space = line.find(' ');
    if (dash == std::string::npos || space == std::string::npos) continue;
    ++out.mappings;
    out.bytes += std::stoull(line.substr(dash + 1, space - dash - 1), nullptr,
                             16) -
                 std::stoull(line.substr(0, dash), nullptr, 16);
  }
  return out;
}

TEST(AlignedAllocator, HugeAllocFreeCyclesLeaveNoMappingBehind) {
  HugeAlloc alloc;
  // Two live blocks per cycle, so consecutive colours differ and the
  // freed pointer is never the mapping base for every block.
  const auto cycle = [&](int i) {
    std::int64_t* a = alloc.allocate(kHugeElems);
    std::int64_t* b = alloc.allocate(kHugeElems + 1);
    a[0] = b[kHugeElems] = i;
    alloc.deallocate(b, kHugeElems + 1);
    alloc.deallocate(a, kHugeElems);
  };
  // Warm-up: the first reads and cycles may map heap regions of their
  // own (a sanitizer's allocator does), which are not the allocator's.
  for (int i = 0; i < 8; ++i) cycle(i);
  maps_footprint();
  const MapsFootprint before = maps_footprint();
  if (before.mappings == 0) GTEST_SKIP() << "no /proc/self/maps";
  for (int i = 0; i < 1000; ++i) cycle(i);
  const MapsFootprint after = maps_footprint();
  EXPECT_LE(after.mappings, before.mappings);
  // A leaked colour page per block would be ~8 MiB; allow the heap some
  // slack for the test's own small allocations.
  EXPECT_LE(after.bytes, before.bytes + (std::uintptr_t{1} << 20));
}

TEST(AlignedAllocator, ConcurrentHugeAllocationsFromPoolThreadsAreValid) {
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::atomic<int> blocks{0};
  pool.for_ranges(4, [&](std::int64_t first, std::int64_t last) {
    HugeAlloc alloc;
    for (std::int64_t r = first; r < last; ++r) {
      for (int round = 0; round < 16; ++round) {
        std::int64_t* p = alloc.allocate(kHugeElems);
        if (address(p) % kCacheLineBytes != 0) bad.fetch_add(1);
        for (std::size_t i = 0; i < kHugeElems; i += 512) {
          p[i] = r;
        }
        p[kHugeElems - 1] = r;
        for (std::size_t i = 0; i < kHugeElems; i += 512) {
          if (p[i] != r) bad.fetch_add(1);
        }
        alloc.deallocate(p, kHugeElems);
        blocks.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(blocks.load(), 4 * 16);
}

}  // namespace
}  // namespace dlb
