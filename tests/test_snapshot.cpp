// Crash-recovery equivalence gate and snapshot robustness tests.
//
// The load-bearing contract (service/snapshot.hpp): for every registry
// balancer × workload × pool size,
//
//     run T  ≡  run T/2 → capture → serialize → destroy everything →
//               rebuild → deserialize → restore → run T/2
//
// with byte-identical loads, per-round discrepancy rows, conservation
// ledger, and steady-state summary. Also covered: a snapshot at round 255
// of a 300-round churned run, the shared core-state bytes of the flat and
// sharded engines, the pinned adjacency fingerprints (cached per graph,
// first computed by racing threads) and whole-image bytes of formats 2
// and 3, a re-framed v2 image that resumes identically, the format-3
// block checksum (pool-size independence, every single-bit flip, swapped
// blocks), a snapshot that outlives the one it was copied from, and the
// refuse-to-load paths — truncation, bit flips, version and topology
// mismatches, and seeded random mutations of valid images must throw
// clean serial_errors without mutating the (flat or sharded) restore
// target, or restore a state the engine can step soundly (exercised
// under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

#include "analysis/experiment.hpp"
#include "balancers/registry.hpp"
#include "balancers/send_floor.hpp"
#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "dynamics/workload.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/balancer_service.hpp"
#include "service/snapshot.hpp"
#include "shard/sharded_engine.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dlb {
namespace {

// ------------------------------------------------------------ fixtures --

/// A writer's bytes as a plain vector, the type serialize() returns.
std::vector<std::uint8_t> plain(const StateWriter& w) {
  return {w.data().begin(), w.data().end()};
}

enum class Churn {
  kStatic,
  kPoisson,
  kBurst,
  kAdversary,
  kAdmission,
  kPoissonAdmission
};

const char* churn_name(Churn c) {
  switch (c) {
    case Churn::kStatic: return "static";
    case Churn::kPoisson: return "poisson";
    case Churn::kBurst: return "burst";
    case Churn::kAdversary: return "adversary";
    case Churn::kAdmission: return "admission";
    case Churn::kPoissonAdmission: return "poisson-admission";
  }
  return "?";
}

/// Owns a workload chain (the admission adapter wraps an inner process).
struct WorkloadBox {
  std::unique_ptr<WorkloadProcess> inner;
  std::unique_ptr<WorkloadProcess> process;  // attach this (null = static)
};

WorkloadBox make_workload(Churn c) {
  WorkloadBox box;
  switch (c) {
    case Churn::kStatic:
      break;
    case Churn::kPoisson:
      box.process = std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
      break;
    case Churn::kBurst:
      box.process = std::make_unique<BurstWorkload>(BurstWorkload::Params{
          .period = 8, .burst = 40, .drain_period = 4, .drain_amount = 1});
      break;
    case Churn::kAdversary:
      box.process = std::make_unique<AdversarialInjector>(
          AdversarialInjector::Params{
              .amount = 6, .period = 2, .drain_min = true});
      break;
    case Churn::kAdmission:
      // Bursts far above the per-round cap, so the FIFO backlog is
      // non-empty at the snapshot round — the queued admissions must
      // survive the restore.
      box.inner = std::make_unique<BurstWorkload>(
          BurstWorkload::Params{.period = 6, .burst = 90});
      box.process = std::make_unique<AdmissionQueue>(
          *box.inner, AdmissionQueue::Params{.round_cap = 16});
      break;
    case Churn::kPoissonAdmission:
      // Open-loop demand above the cap, as a service sees it.
      box.inner = std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
      box.process = std::make_unique<AdmissionQueue>(
          *box.inner, AdmissionQueue::Params{.round_cap = 6});
      break;
  }
  return box;
}

/// What every rig builds before its engine: cycle(24), the balancer
/// (seed 11), the workload chain and the tracker, and the self-loop count
/// and initial loads the engine takes.
struct RigBase {
  Graph g;
  std::unique_ptr<Balancer> balancer;
  WorkloadBox wl;
  SteadyStateTracker tracker;
  int loops;
  LoadVector initial;

  RigBase(const std::string& balancer_name, Churn churn)
      : g(make_cycle(24)),
        balancer(find_balancer_factory(balancer_name)(/*seed=*/11)),
        wl(make_workload(churn)),
        tracker(SteadyOptions{.window = 12, .warmup = 4}),
        initial(static_cast<std::size_t>(g.num_nodes()), 0) {
    const BalancerTraits traits = find_balancer_traits(balancer_name);
    loops = traits.exact_d_loops
                ? g.degree()
                : std::max(traits.min_loops(g.degree()), g.degree());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      initial[static_cast<std::size_t>(u)] = (u % 5 == 0) ? 20 : 1;
    }
  }

  /// Seeds the workload (42) and attaches it to `engine`.
  template <class EngineT>
  void attach_workload(EngineT& engine) {
    if (!wl.process) return;
    wl.process->reset(g.num_nodes(), /*seed=*/42);
    engine.set_workload(wl.process.get());
  }
};

/// A complete, independently-destructible run: graph, balancer, workload,
/// optional pool, engine, tracker. Built identically for the full, the
/// captured, and the restored leg of the equivalence check.
struct Rig : RigBase {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Engine> engine;

  explicit Rig(const std::string& balancer_name, Churn churn, int threads)
      : RigBase(balancer_name, churn) {
    engine = std::make_unique<Engine>(g, EngineConfig{.self_loops = loops},
                                      *balancer, initial);
    attach_workload(*engine);
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      engine->set_thread_pool(pool.get());
    }
  }

  void step_rounds(Step k, std::vector<Load>* disc_rows = nullptr) {
    for (Step i = 0; i < k; ++i) {
      if (pool) {
        engine->step_parallel();
      } else {
        engine->step();
      }
      tracker.observe(engine->time(), engine->discrepancy());
      if (disc_rows) disc_rows->push_back(engine->discrepancy());
    }
  }
};

/// The same run on a serial ShardedEngine of `shards` shards.
struct ShardedRig : RigBase {
  std::unique_ptr<ShardedEngine> engine;

  ShardedRig(const std::string& balancer_name, Churn churn, int shards)
      : RigBase(balancer_name, churn) {
    engine = std::make_unique<ShardedEngine>(
        g, ShardedEngineConfig{.self_loops = loops}, *balancer, initial,
        shards);
    attach_workload(*engine);
  }

  void step_rounds(Step k) {
    for (Step i = 0; i < k; ++i) {
      engine->step();
      tracker.observe(engine->time(), engine->discrepancy());
    }
  }
};

struct Observed {
  LoadVector loads;
  Step t = 0;
  Load total = 0, base = 0, injected = 0, consumed = 0;
  Load disc = 0, min_seen = 0;
  std::vector<Load> disc_tail;  // per-round discrepancy after the split
  SteadySummary steady;
};

Observed observe(const Rig& rig, std::vector<Load> disc_tail) {
  Observed o;
  o.loads = rig.engine->loads();
  o.t = rig.engine->time();
  o.total = rig.engine->total();
  o.base = rig.engine->base_total();
  o.injected = rig.engine->injected_total();
  o.consumed = rig.engine->consumed_total();
  o.disc = rig.engine->discrepancy();
  o.min_seen = rig.engine->min_load_seen();
  o.disc_tail = std::move(disc_tail);
  o.steady = rig.tracker.summary();
  return o;
}

void expect_identical(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.loads, b.loads) << "load vectors diverged";
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.base, b.base);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.consumed, b.consumed);
  EXPECT_EQ(a.disc, b.disc);
  EXPECT_EQ(a.min_seen, b.min_seen);
  EXPECT_EQ(a.disc_tail, b.disc_tail) << "per-round discrepancy rows diverged";
  EXPECT_EQ(a.steady.rounds, b.steady.rounds);
  EXPECT_EQ(a.steady.t_steady, b.steady.t_steady);
  EXPECT_EQ(a.steady.window_mean, b.steady.window_mean);
  EXPECT_EQ(a.steady.window_max, b.steady.window_max);
  EXPECT_EQ(a.steady.window_p99, b.steady.window_p99);
}

// ----------------------------------------------------- equivalence gate --

TEST(SnapshotEquivalence, EveryBalancerEveryWorkloadAtPools1And8) {
  constexpr Step kT = 40;
  constexpr Churn kChurns[] = {Churn::kStatic, Churn::kPoisson, Churn::kBurst,
                               Churn::kAdversary, Churn::kAdmission};
  for (const std::string& name : registered_balancer_names()) {
    for (Churn churn : kChurns) {
      for (int threads : {1, 8}) {
        SCOPED_TRACE(name + " / " + churn_name(churn) + " / pool=" +
                     std::to_string(threads));

        // Reference: one uninterrupted run of T rounds.
        Rig full(name, churn, threads);
        std::vector<Load> full_tail;
        full.step_rounds(kT / 2);
        full.step_rounds(kT - kT / 2, &full_tail);
        const Observed want = observe(full, std::move(full_tail));

        // Candidate: run T/2, capture, serialize, destroy every object,
        // rebuild from scratch, deserialize, restore, run the rest.
        std::vector<std::uint8_t> bytes;
        {
          Rig half(name, churn, threads);
          half.step_rounds(kT / 2);
          bytes = EngineSnapshot::capture(*half.engine, &half.tracker)
                      .serialize();
        }
        Rig resumed(name, churn, threads);
        EngineSnapshot::deserialize(bytes).restore(*resumed.engine,
                                                   &resumed.tracker);
        ASSERT_EQ(resumed.engine->time(), kT / 2);
        std::vector<Load> resumed_tail;
        resumed.step_rounds(kT - kT / 2, &resumed_tail);
        const Observed got = observe(resumed, std::move(resumed_tail));

        expect_identical(want, got);
      }
    }
  }
}

TEST(SnapshotEquivalence, CrossPoolRestoreIsAlsoIdentical) {
  // A snapshot taken by a serial service restores into a parallel one
  // (and vice versa): pool attachment is configuration, not state.
  constexpr Step kT = 30;
  const std::string name = "ROTOR-ROUTER";
  Rig full(name, Churn::kPoisson, 1);
  std::vector<Load> full_tail;
  full.step_rounds(kT, &full_tail);
  const Observed want = observe(full, std::move(full_tail));

  std::vector<std::uint8_t> bytes;
  {
    Rig half(name, Churn::kPoisson, 1);
    half.step_rounds(kT / 2);
    bytes =
        EngineSnapshot::capture(*half.engine, &half.tracker).serialize();
  }
  Rig resumed(name, Churn::kPoisson, 8);  // different pool size
  EngineSnapshot::deserialize(bytes).restore(*resumed.engine,
                                             &resumed.tracker);
  resumed.step_rounds(kT - kT / 2);
  EXPECT_EQ(want.loads, resumed.engine->loads());
  EXPECT_EQ(want.injected, resumed.engine->injected_total());
  EXPECT_EQ(want.consumed, resumed.engine->consumed_total());
}

TEST(SnapshotEquivalence, StructuredSimdRunRestoresIntoScalarRun) {
  // A snapshot captured mid-run under the AVX2 kernels restores into an
  // engine forced onto the scalar fallback (and vice versa) with the
  // identical trajectory: SIMD is a kernel implementation detail, never
  // state. Uses a size with a vector tail (65 = 16 blocks + 1) so both
  // halves of the dispatch are live in the captured run. Vacuous (both
  // runs scalar) when AVX2 is not compiled in or the CPU lacks it.
  constexpr Step kT = 40;
  const bool simd_was = simd::enabled();
  const Graph g = make_cycle(65);
  const LoadVector initial = random_initial(g.num_nodes(), 700, /*seed=*/21);
  const EngineConfig config{.self_loops = g.degree()};

  const auto run = [&](bool simd_first, bool simd_second) {
    auto half_b = make_balancer(Algorithm::kBoundedError, 11);
    std::vector<std::uint8_t> bytes;
    {
      Engine half(g, config, *half_b, initial);
      simd::set_enabled(simd_first);
      for (Step t = 0; t < kT / 2; ++t) half.step();
      bytes = EngineSnapshot::capture(half).serialize();
    }
    auto resumed_b = make_balancer(Algorithm::kBoundedError, 11);
    Engine resumed(g, config, *resumed_b, initial);
    EngineSnapshot::deserialize(bytes).restore(resumed);
    simd::set_enabled(simd_second);
    for (Step t = kT / 2; t < kT; ++t) resumed.step();
    return resumed.loads();
  };

  const LoadVector simd_then_scalar = run(true, false);
  const LoadVector scalar_then_simd = run(false, true);
  const LoadVector scalar_only = run(false, false);
  EXPECT_EQ(simd_then_scalar, scalar_only);
  EXPECT_EQ(scalar_then_simd, scalar_only);
  simd::set_enabled(simd_was);
}

// -------------------------------------------------------------- long run --

// A long churned run with a snapshot/restore deep inside it: 300 rounds
// uninterrupted must equal 255 rounds, snapshot, destroy, restore, and 45
// more. The restored engine starts with a fresh next-load buffer, so any
// state the round carries outside the snapshot shows up as a diverged
// load.
TEST(SnapshotLongRun, SnapshotAt255ThenRestoreMatches300RoundRun) {
  constexpr Step kT = 300;        // rounds of the uninterrupted reference
  constexpr Step kSnapAt = 255;   // capture here, restore, run the rest
  const Graph g = make_cycle(24);
  CounterWorkload churn({.arrival_period = 3,
                         .arrival_amount = 2,
                         .departure_period = 5,
                         .departure_amount = 1});
  LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 0);
  initial[0] = 240;

  auto fresh_engine = [&](Balancer& b, WorkloadProcess& w) {
    auto e = std::make_unique<Engine>(
        g, EngineConfig{.self_loops = g.degree()}, b, initial);
    w.reset(g.num_nodes(), 9);
    e->set_workload(&w);
    return e;
  };

  // Reference: uninterrupted.
  SendFloor ref_bal;
  CounterWorkload ref_churn = churn;
  auto ref = fresh_engine(ref_bal, ref_churn);
  std::vector<Load> ref_rows;
  for (Step t = 0; t < kT; ++t) {
    ref->step();
    ref_rows.push_back(ref->discrepancy());
  }

  // Candidate: snapshot taken at round 255, everything destroyed and
  // restored.
  std::vector<std::uint8_t> bytes;
  {
    SendFloor bal;
    CounterWorkload w = churn;
    auto e = fresh_engine(bal, w);
    e->run(kSnapAt);
    bytes = EngineSnapshot::capture(*e).serialize();
  }
  SendFloor bal2;
  CounterWorkload w2 = churn;
  auto e2 = fresh_engine(bal2, w2);
  EngineSnapshot::deserialize(bytes).restore(*e2);
  ASSERT_EQ(e2->time(), kSnapAt);
  std::vector<Load> got_rows;
  {
    // Recompute the first half's rows from the reference (they were not
    // recorded in the candidate's first leg on purpose: the restored
    // engine must reproduce the *remaining* rows from state alone).
    got_rows.assign(ref_rows.begin(), ref_rows.begin() + kSnapAt);
  }
  for (Step t = kSnapAt; t < kT; ++t) {
    e2->step();
    got_rows.push_back(e2->discrepancy());
  }

  EXPECT_EQ(ref->loads(), e2->loads())
      << "snapshot/restore at round 255 changed the trajectory";
  EXPECT_EQ(ref_rows, got_rows);
  EXPECT_EQ(ref->total(), e2->total());
  EXPECT_EQ(ref->injected_total(), e2->injected_total());
  EXPECT_EQ(ref->consumed_total(), e2->consumed_total());
}

// ------------------------------------------------------ refuse-to-load --

class SnapshotCorruption : public ::testing::Test {
 protected:
  std::vector<std::uint8_t> valid_bytes() {
    Rig rig("SEND(floor)", Churn::kPoisson, 1);
    rig.step_rounds(10);
    return EngineSnapshot::capture(*rig.engine, &rig.tracker).serialize();
  }
};

TEST_F(SnapshotCorruption, TruncationAtEveryLayerThrowsCleanly) {
  const std::vector<std::uint8_t> bytes = valid_bytes();
  // Sweep truncation points: empty, mid-magic, header-only, mid-payload,
  // one-byte-short. Every prefix must throw serial_error — never crash,
  // never return a half-parsed snapshot (ASan/UBSan-clean in CI).
  for (std::size_t len :
       {std::size_t{0}, std::size_t{5}, std::size_t{8}, std::size_t{20},
        std::size_t{28}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(EngineSnapshot::deserialize(cut), serial_error);
  }
}

TEST_F(SnapshotCorruption, BitFlipAnywhereInPayloadFailsTheChecksum) {
  const std::vector<std::uint8_t> bytes = valid_bytes();
  const std::size_t header = 8 + 4 + 8 + 8;  // magic+version+len+checksum
  // Flip one bit in a spread of payload positions.
  for (std::size_t pos = header; pos < bytes.size(); pos += 97) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::vector<std::uint8_t> bad = bytes;
    bad[pos] ^= 0x10;
    EXPECT_THROW(EngineSnapshot::deserialize(bad), serial_error);
  }
}

TEST_F(SnapshotCorruption, BadMagicAndUnsupportedVersionAreRejected) {
  std::vector<std::uint8_t> bad_magic = valid_bytes();
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(EngineSnapshot::deserialize(bad_magic), serial_error);

  std::vector<std::uint8_t> bad_version = valid_bytes();
  bad_version[8] = 0xEE;  // version field follows the 8-byte magic
  try {
    EngineSnapshot::deserialize(bad_version);
    FAIL() << "unsupported version was accepted";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SnapshotCorruption, TopologyAndConfigMismatchesRefuseBeforeMutating) {
  Rig src("SEND(floor)", Churn::kPoisson, 1);
  src.step_rounds(10);
  const EngineSnapshot snap =
      EngineSnapshot::capture(*src.engine, &src.tracker);

  struct Target {
    const char* what;
    Graph g;
    const char* balancer;
    int d_loops;
  };
  // Same n and d but different adjacency (circulant with offset 2): only
  // the adjacency hash can tell them apart.
  const Target targets[] = {
      {"node count", make_cycle(32), "SEND(floor)", 2},
      {"structure tag + adjacency", make_circulant(24, {2}), "SEND(floor)", 2},
      {"degree", make_torus2d(4, 6), "SEND(floor)", 4},
      {"balancer", make_cycle(24), "ROTOR-ROUTER", 2},
      {"self-loops", make_cycle(24), "SEND(floor)", 4},
  };
  for (const Target& target : targets) {
    SCOPED_TRACE(target.what);
    std::unique_ptr<Balancer> b =
        find_balancer_factory(target.balancer)(/*seed=*/11);
    Engine engine(target.g, EngineConfig{.self_loops = target.d_loops}, *b,
                  LoadVector(static_cast<std::size_t>(target.g.num_nodes()),
                             3));
    PoissonWorkload w(
        PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
    w.reset(target.g.num_nodes(), 42);
    engine.set_workload(&w);
    SteadyStateTracker tracker(SteadyOptions{.window = 12, .warmup = 4});

    const LoadVector before = engine.loads();
    EXPECT_THROW(snap.restore(engine, &tracker), serial_error);
    EXPECT_EQ(engine.loads(), before) << "failed restore mutated the engine";
    EXPECT_EQ(engine.time(), 0);
  }
}

TEST_F(SnapshotCorruption, WorkloadAndTrackerPresenceMustMatch) {
  Rig src("SEND(floor)", Churn::kPoisson, 1);
  src.step_rounds(6);
  const EngineSnapshot with_wl =
      EngineSnapshot::capture(*src.engine, &src.tracker);

  // Target without a workload.
  Rig bare("SEND(floor)", Churn::kStatic, 1);
  EXPECT_THROW(with_wl.restore(*bare.engine, &bare.tracker), serial_error);

  // Target with a *different* workload configuration.
  Rig other("SEND(floor)", Churn::kBurst, 1);
  EXPECT_THROW(with_wl.restore(*other.engine, &other.tracker), serial_error);

  // Tracker presence must match in both directions.
  Rig no_tracker("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(with_wl.restore(*no_tracker.engine, nullptr), serial_error);
  const EngineSnapshot sans_tracker = EngineSnapshot::capture(*src.engine);
  Rig with_tracker("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(
      sans_tracker.restore(*with_tracker.engine, &with_tracker.tracker),
      serial_error);

  // Mismatched tracker window: state must not be loadable into a
  // differently-sized ring.
  SteadyStateTracker wide(SteadyOptions{.window = 40, .warmup = 4});
  Rig sized("SEND(floor)", Churn::kPoisson, 1);
  EXPECT_THROW(with_wl.restore(*sized.engine, &wide), serial_error);
}

// Re-frames a valid image with `edit` applied to its core blob, under a
// fresh, valid checksum (the layout of EngineSnapshot::serialize), so the
// damage reaches the engine's core-state reader instead of the checksum.
template <class Edit>
std::vector<std::uint8_t> with_edited_core(
    const std::vector<std::uint8_t>& image, Edit&& edit) {
  StateReader header(image);
  const std::uint64_t magic = header.u64();
  const std::uint32_t version = header.u32();
  const std::uint64_t len = header.u64();
  header.u64();  // old checksum
  StateReader r(header.bytes(static_cast<std::size_t>(len)));
  StateWriter p;
  p.i32(r.i32());  // n
  p.i32(r.i32());  // d
  p.i32(r.i32());  // self-loops
  p.u8(r.u8());    // structure tag
  p.vec_i32(r.vec_i32());
  p.u64(r.u64());  // adjacency hash
  p.str(r.str());  // graph, balancer, workload names
  p.str(r.str());
  p.str(r.str());
  p.i64(r.i64());  // time
  p.b(r.b());      // has tracker
  for (int blob = 0; blob < 4; ++blob) {
    const auto bytes = r.bytes(static_cast<std::size_t>(r.u64()));
    std::vector<std::uint8_t> b(bytes.begin(), bytes.end());
    if (blob == 0) edit(b);
    p.u64(b.size());
    p.bytes(b);
  }
  StateWriter out;
  out.u64(magic);
  out.u32(version);
  out.u64(p.size());
  out.u64(EngineSnapshot::payload_checksum(version, p.data()));
  out.bytes(p.data());
  return plain(out);
}

TEST_F(SnapshotCorruption, BadCoreStateLeavesFlatAndShardedTargetsIntact) {
  // Two images whose checksum is valid but whose core blob is not: one
  // ends right after the load vector, one sets the stats-dirty byte that
  // no engine writes. A restore must throw before replacing anything, on
  // the flat engine and on a 3-shard engine, and the target must keep
  // stepping exactly like a twin that never saw the attempt.
  const Graph g = make_cycle(24);
  const CounterWorkload::Params churn{.arrival_period = 3,
                                      .arrival_amount = 2,
                                      .departure_period = 5,
                                      .departure_amount = 1};
  const EngineConfig flat_cfg{.self_loops = g.degree()};
  const ShardedEngineConfig shard_cfg{.self_loops = g.degree()};
  std::vector<std::uint8_t> image;
  {
    SendFloor bal;
    CounterWorkload w(churn);
    w.reset(g.num_nodes(), 9);
    Engine src(g, flat_cfg, bal, random_initial(g.num_nodes(), 300, 3));
    src.set_workload(&w);
    src.run(10);
    image = EngineSnapshot::capture(src).serialize();
  }
  const std::size_t loads_bytes = 8 + 8 * static_cast<std::size_t>(24);
  const std::vector<std::vector<std::uint8_t>> bad = {
      with_edited_core(image,
                       [&](std::vector<std::uint8_t>& b) {
                         b.resize(loads_bytes);
                       }),
      with_edited_core(image,
                       [](std::vector<std::uint8_t>& b) {
                         // Indexed write: GCC 12 at -O3 cannot prove
                         // back() non-empty and flags it as an overflow.
                         if (b.empty()) {
                           ADD_FAILURE() << "core blob is empty";
                           return;
                         }
                         b[b.size() - 1] = 1;
                       }),
  };
  const LoadVector initial = random_initial(g.num_nodes(), 200, 5);

  // Runs `rounds` on a fresh target (flat or k shards), tries every bad
  // image on it when `attack`, then runs `rounds` more.
  struct Seen {
    LoadVector loads;
    Step time;
    Load total, base, injected, consumed, disc, min_seen;
    bool operator==(const Seen&) const = default;
  };
  const auto observe = [](const auto& e, LoadVector loads) {
    return Seen{std::move(loads),     e.time(),           e.total(),
                e.base_total(),       e.injected_total(), e.consumed_total(),
                e.discrepancy(),      e.min_load_seen()};
  };
  const auto run = [&](int shards, bool attack) {
    SendFloor bal;
    CounterWorkload w(churn);
    w.reset(g.num_nodes(), 9);
    std::vector<Seen> seen;
    const auto drive = [&](auto& e, auto loads_of) {
      e.set_workload(&w);
      e.run(4);
      seen.push_back(observe(e, loads_of(e)));
      if (attack) {
        for (const auto& bytes : bad) {
          EXPECT_THROW(EngineSnapshot::deserialize(bytes).restore(e),
                       serial_error);
          EXPECT_EQ(observe(e, loads_of(e)), seen.front())
              << "failed restore changed the target (shards=" << shards
              << ")";
        }
      }
      e.run(6);
      seen.push_back(observe(e, loads_of(e)));
    };
    if (shards == 0) {
      Engine e(g, flat_cfg, bal, initial);
      drive(e, [](const Engine& x) { return x.loads(); });
    } else {
      ShardedEngine e(g, shard_cfg, bal, initial, shards);
      drive(e, [](const ShardedEngine& x) { return x.gather_loads(); });
    }
    return seen;
  };
  for (const int shards : {0, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(run(shards, true), run(shards, false));
  }
}

TEST_F(SnapshotCorruption, FileRoundtripAndAtomicReplace) {
  const std::string path = ::testing::TempDir() + "dlb_snapshot_test.bin";
  Rig src("ROTOR-ROUTER", Churn::kBurst, 1);
  src.step_rounds(12);
  const EngineSnapshot snap =
      EngineSnapshot::capture(*src.engine, &src.tracker);
  snap.write_file(path);

  const EngineSnapshot back = EngineSnapshot::read_file(path);
  EXPECT_EQ(back.time(), 12);
  EXPECT_EQ(back.balancer_name(), "ROTOR-ROUTER");
  EXPECT_EQ(back.num_nodes(), 24);
  EXPECT_TRUE(back.has_tracker());
  EXPECT_EQ(back.adjacency_hash(), snap.adjacency_hash());

  Rig resumed("ROTOR-ROUTER", Churn::kBurst, 1);
  back.restore(*resumed.engine, &resumed.tracker);
  EXPECT_EQ(resumed.engine->loads(), src.engine->loads());

  // A second write over the same path goes through the temp-file +
  // rename path (atomic replace of an existing checkpoint).
  src.step_rounds(1);
  EngineSnapshot::capture(*src.engine, &src.tracker).write_file(path);
  EXPECT_EQ(EngineSnapshot::read_file(path).time(), 13);
  EXPECT_THROW(EngineSnapshot::read_file(path + ".does-not-exist"),
               serial_error);
  std::remove(path.c_str());
}

TEST_F(SnapshotCorruption, WriteFileFailuresSurfaceDistinctErrors) {
  Rig src("SEND(floor)", Churn::kStatic, 1);
  src.step_rounds(4);
  const EngineSnapshot snap = EngineSnapshot::capture(*src.engine);

  // Unwritable location: the temp file cannot even be created.
  try {
    snap.write_file(::testing::TempDir() +
                    "dlb_no_such_dir/nested/snapshot.bin");
    FAIL() << "write into a missing directory must throw";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open temporary file"),
              std::string::npos)
        << e.what();
  }

  // Rename-into-place failure: the destination is a directory, so the
  // durable temp file cannot take its name. The temp must be cleaned up.
  const std::string dir_path = ::testing::TempDir() + "dlb_write_target_dir";
  ::mkdir(dir_path.c_str(), 0755);
  try {
    snap.write_file(dir_path);
    FAIL() << "rename onto a directory must throw";
  } catch (const serial_error& e) {
    EXPECT_NE(std::string(e.what()).find("rename"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::ifstream(dir_path + ".tmp").good())
      << "failed write left its temp file behind";
  ::rmdir(dir_path.c_str());
}

// ------------------------------------------------ adjacency fingerprint --

TEST(SnapshotFingerprint, AdjacencyHashesArePinned) {
  // The v2 image stores FNV-1a over neighbor(u, p) in port-table order.
  // The values are those of the graphs' port tables; the formula form
  // must reproduce them exactly, or checkpoints taken on one form stop
  // restoring on the other.
  struct Pin {
    Graph g;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {make_cycle(8), 0x6afc7fa6821bf465ULL},
      {make_torus2d(3, 4), 0x8ac3198fd40831e5ULL},
      {make_hypercube(3), 0xe979e03ab9720f25ULL},
      {make_petersen(), 0xb9559e0d5f3828f4ULL},
  };
  for (const Pin& pin : pins) {
    for (const Graph& g : {pin.g, pin.g.without_structure()}) {
      SCOPED_TRACE(g.name() + (g.structure().kind == GraphStructure::kGeneric
                                   ? " (tables)"
                                   : " (formula)"));
      SendFloor bal;
      Engine e(g, EngineConfig{.self_loops = g.degree()}, bal,
               LoadVector(static_cast<std::size_t>(g.num_nodes()), 1));
      EXPECT_EQ(EngineSnapshot::capture(e).adjacency_hash(), pin.hash);
    }
  }
}

TEST(SnapshotFingerprint, CachedHashTravelsWithCopiesAndMatchesTables) {
  // The hash is computed once per Graph: a copy taken after the first
  // call carries the value, one taken before computes its own, the
  // table-built copy of a structured graph hashes equal, and a graph
  // assigned over one that had hashed drops the old value.
  const Graph torus = make_torus2d(30, 40);
  const Graph before = torus;
  const std::uint64_t h = torus.adjacency_hash();
  const Graph after = torus;
  EXPECT_EQ(after.adjacency_hash(), h);
  EXPECT_EQ(before.adjacency_hash(), h);
  const Graph tables = torus.without_structure();
  EXPECT_EQ(tables.adjacency_hash(), h);
  EXPECT_EQ(tables.without_structure().adjacency_hash(), h);
  Graph assigned = make_cycle(8);
  EXPECT_NE(assigned.adjacency_hash(), h);
  assigned = make_torus2d(30, 40);
  EXPECT_EQ(assigned.adjacency_hash(), h);
  assigned = make_cycle(8);
  EXPECT_NE(assigned.adjacency_hash(), h);
  assigned = tables;
  EXPECT_EQ(assigned.adjacency_hash(), h);
  EXPECT_NE(make_torus2d(40, 30).adjacency_hash(), h);
}

TEST(SnapshotFingerprint, ConcurrentFirstCallsAgree) {
  // Pool threads race to make the first call on fresh graphs (a data
  // race here is a TSan failure); every caller sees the one value.
  const Graph reference = make_cycle(1 << 16);
  const std::uint64_t want = reference.adjacency_hash();
  ThreadPool pool(8);
  for (const Graph& g :
       {make_cycle(1 << 16), make_cycle(1 << 16).without_structure()}) {
    std::vector<std::uint64_t> seen(64, 0);
    pool.for_ranges(static_cast<std::int64_t>(seen.size()),
                    [&](std::int64_t first, std::int64_t last) {
                      for (std::int64_t i = first; i < last; ++i) {
                        seen[static_cast<std::size_t>(i)] = g.adjacency_hash();
                      }
                    });
    for (const std::uint64_t v : seen) EXPECT_EQ(v, want);
  }
}

// ------------------------------------------------------ pinned image bytes --

/// The image of `rig` after 10 rounds, with its tracker iff `tracked`.
template <class RigT>
std::vector<std::uint8_t> pinned_image(RigT&& rig, bool tracked) {
  rig.step_rounds(10);
  return EngineSnapshot::capture(*rig.engine, tracked ? &rig.tracker : nullptr)
      .serialize();
}

/// Re-frames a current-format image as version 2: version 2 in the
/// header and an FNV-1a checksum over the same payload bytes.
std::vector<std::uint8_t> as_format_two(const std::vector<std::uint8_t>& v3) {
  StateReader h(v3);
  const std::uint64_t magic = h.u64();
  EXPECT_EQ(h.u32(), EngineSnapshot::kFormatVersion);
  const std::uint64_t len = h.u64();
  h.u64();  // checksum
  const auto payload = h.bytes(static_cast<std::size_t>(len));
  StateWriter image;
  image.u64(magic);
  image.u32(2);
  image.u64(len);
  image.u64(EngineSnapshot::payload_checksum(2, payload));
  image.bytes(payload);
  return plain(image);
}

TEST(SnapshotFormat, ImageBytesArePinned) {
  // FNV-1a of whole v2 images, recorded when the format was frozen: any
  // change to what capture writes, or in which order, moves these.
  // Version 3 changed the checksum alone, so the v3 image re-framed as
  // v2 must still hash to them. `v3` is the FNV-1a of the v3 image
  // itself, header included, which pins the block checksum too. The
  // flat engine and a 3-shard engine write the same image.
  struct Pin {
    const char* balancer;
    Churn churn;
    bool tracked;
    std::uint64_t hash;
    std::uint64_t v3;
  };
  const Pin pins[] = {
      {"ROTOR-ROUTER", Churn::kPoissonAdmission, true, 0x06ac0bcd5a1d0d4fULL,
       0x48171f90d8fc8a51ULL},
      {"CONT-MIMIC", Churn::kBurst, false, 0x4928fda6bcec8bebULL,
       0xd7a27e708d70db90ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.balancer) + " / " + churn_name(pin.churn));
    const std::vector<std::uint8_t> flat =
        pinned_image(Rig(pin.balancer, pin.churn, 1), pin.tracked);
    const std::vector<std::uint8_t> sharded =
        pinned_image(ShardedRig(pin.balancer, pin.churn, 3), pin.tracked);
    const std::vector<std::uint8_t> v2 = as_format_two(flat);
    EXPECT_EQ(fnv1a64(v2), pin.hash) << std::hex << fnv1a64(v2);
    EXPECT_EQ(fnv1a64(flat), pin.v3) << std::hex << fnv1a64(flat);
    EXPECT_EQ(sharded, flat);
    EXPECT_EQ(EngineSnapshot::deserialize(flat).serialize(), flat);
    EXPECT_EQ(EngineSnapshot::deserialize(v2).serialize(), v2);
  }
}

TEST(SnapshotFormat, VersionTwoImageRestoresAndContinuesIdentically) {
  // A v3 image re-framed as v2 restores into a flat and a 3-shard
  // target, and 10 more rounds land on the bytes of the run that never
  // stopped.
  constexpr Step kSnapAt = 10;
  Rig full("ROTOR-ROUTER", Churn::kPoissonAdmission, 1);
  full.step_rounds(2 * kSnapAt);
  const std::vector<std::uint8_t> want =
      EngineSnapshot::capture(*full.engine, &full.tracker).serialize();

  std::vector<std::uint8_t> v2;
  {
    Rig half("ROTOR-ROUTER", Churn::kPoissonAdmission, 1);
    half.step_rounds(kSnapAt);
    v2 = as_format_two(
        EngineSnapshot::capture(*half.engine, &half.tracker).serialize());
  }
  Rig flat("ROTOR-ROUTER", Churn::kPoissonAdmission, 1);
  flat.step_rounds(3);
  EngineSnapshot::deserialize(v2).restore(*flat.engine, &flat.tracker);
  flat.step_rounds(kSnapAt);
  expect_identical(observe(full, {}), observe(flat, {}));
  EXPECT_EQ(EngineSnapshot::capture(*flat.engine, &flat.tracker).serialize(),
            want);

  ShardedRig sharded("ROTOR-ROUTER", Churn::kPoissonAdmission, 3);
  EngineSnapshot::deserialize(v2).restore(*sharded.engine, &sharded.tracker);
  sharded.step_rounds(kSnapAt);
  EXPECT_EQ(sharded.engine->gather_loads(), full.engine->loads());
  EXPECT_EQ(
      EngineSnapshot::capture(*sharded.engine, &sharded.tracker).serialize(),
      want);
}

// ------------------------------------------------------ block checksum --

/// A 2^15-node ROTOR-ROUTER run behind an admission backlog, stepped on
/// a pool of `threads`: an image of several checksum blocks.
std::vector<std::uint8_t> multi_block_image(int threads) {
  const Graph g = make_cycle(1 << 15);
  const auto balancer = find_balancer_factory("ROTOR-ROUTER")(/*seed=*/3);
  PoissonWorkload inner(
      PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.3});
  AdmissionQueue queue(inner, AdmissionQueue::Params{.round_cap = 64});
  queue.reset(g.num_nodes(), 9);
  Engine engine(g, EngineConfig{.self_loops = g.degree()}, *balancer,
                LoadVector(static_cast<std::size_t>(g.num_nodes()), 4));
  engine.set_workload(&queue);
  ThreadPool pool(threads);
  engine.set_thread_pool(&pool);
  for (int t = 0; t < 6; ++t) engine.step_parallel();
  return EngineSnapshot::capture(engine).serialize();
}

/// The error deserialize() throws for `bytes`, or "" if it accepts them.
std::string refusal(const std::vector<std::uint8_t>& bytes) {
  try {
    EngineSnapshot::deserialize(bytes);
  } catch (const serial_error& e) {
    return e.what();
  }
  return "";
}

constexpr std::size_t kImageHeaderBytes = 8 + 4 + 8 + 8;

TEST(SnapshotChecksum, PoolSizeDoesNotChangeTheImage) {
  const std::vector<std::uint8_t> one = multi_block_image(1);
  ASSERT_GT(one.size(), 4 * kChecksumBlockBytes);
  for (const int threads : {3, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(multi_block_image(threads), one);
  }
  EXPECT_EQ(refusal(one), "");
}

TEST(SnapshotChecksum, EverySingleBitFlipInThePayloadIsRefused) {
  Rig rig("ROTOR-ROUTER", Churn::kAdmission, 1);
  rig.step_rounds(10);
  const std::vector<std::uint8_t> image =
      EngineSnapshot::capture(*rig.engine, &rig.tracker).serialize();
  std::vector<std::uint8_t> bad = image;
  for (std::size_t pos = kImageHeaderBytes; pos < image.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      const std::string why = refusal(bad);
      bad[pos] = image[pos];
      if (why.find("checksum") == std::string::npos) {
        ADD_FAILURE() << "bit " << bit << " of byte " << pos
                      << " flipped: " << (why.empty() ? "accepted" : why);
      }
    }
  }
}

TEST(SnapshotChecksum, SwappedBlocksAreRefused) {
  const std::vector<std::uint8_t> image = multi_block_image(1);
  ASSERT_GT(image.size() - kImageHeaderBytes, 2 * kChecksumBlockBytes);
  std::vector<std::uint8_t> swapped = image;
  const auto first = swapped.begin() + kImageHeaderBytes;
  const auto second = first + kChecksumBlockBytes;
  ASSERT_FALSE(std::equal(first, second, second));
  std::swap_ranges(first, second, second);
  EXPECT_NE(refusal(swapped).find("checksum"), std::string::npos);
}

TEST(SnapshotChecksum, ValueIsPinnedAndCoversLengthAndOrder) {
  // A fixed 5-block input whose last block is a partial stripe: the
  // value freezes format 3's checksum.
  std::vector<std::uint8_t> data(4 * kChecksumBlockBytes + 77);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i * 131 + (i >> 9)) & 0xFF);
  }
  const std::uint64_t want = 0x8ae96f57a257d2f7ULL;
  EXPECT_EQ(block_checksum(data), want) << std::hex << block_checksum(data);
  for (const int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(block_checksum(data, &pool), want) << threads << " threads";
  }
  // Zero padding is not the same as zero bytes.
  std::vector<std::uint8_t> longer = data;
  longer.push_back(0);
  EXPECT_NE(block_checksum(longer), want);
  EXPECT_NE(block_checksum(std::span<const std::uint8_t>(data).first(
                data.size() - 1)),
            want);
  // Blocks in another order hash differently.
  std::vector<std::uint8_t> rotated = data;
  std::rotate(rotated.begin(), rotated.begin() + kChecksumBlockBytes,
              rotated.begin() + 4 * kChecksumBlockBytes);
  EXPECT_NE(block_checksum(rotated), want);
}

TEST(SnapshotFormat, CopiedSnapshotOutlivesItsOriginal) {
  // A snapshot owns its image: a copy restores after the original is
  // gone, and so does a snapshot moved out of that copy.
  Rig full("ROTOR-ROUTER", Churn::kAdmission, 1);
  full.step_rounds(20);

  Rig src("ROTOR-ROUTER", Churn::kAdmission, 1);
  src.step_rounds(10);
  auto original = std::make_unique<EngineSnapshot>(
      EngineSnapshot::capture(*src.engine, &src.tracker));
  EngineSnapshot copy = *original;
  original.reset();
  const EngineSnapshot moved = std::move(copy);

  Rig dst("ROTOR-ROUTER", Churn::kAdmission, 1);
  dst.step_rounds(3);
  moved.restore(*dst.engine, &dst.tracker);
  dst.step_rounds(10);
  expect_identical(observe(full, {}), observe(dst, {}));
}

// ----------------------------------------------------- image mutations --

constexpr std::uint64_t kMutationSeed = 0x5eed5a4bULL;
constexpr int kMutationIterations = 4000;

/// Counter RNG of the mutation test: iteration i draws from a generator
/// keyed on (seed, i) alone, so a failure reproduces from the two numbers
/// its trace prints.
Rng mutation_rng(std::uint64_t seed, int iteration) {
  std::uint64_t key =
      seed ^ (static_cast<std::uint64_t>(iteration) * 0xd1b54a32d192ed03ULL);
  return Rng(splitmix64(key));
}

std::size_t pick(Rng& rng, std::size_t bound) {
  return static_cast<std::size_t>(rng.uniform_u64(bound));
}

/// A valid image split into its header fields and payload, plus the
/// payload offsets of its length fields: the extents and the three
/// names, the four component blobs, and the core blob's load vector.
struct ImageParts {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::size_t> length_fields;
};

ImageParts split_image(const std::vector<std::uint8_t>& image) {
  ImageParts parts;
  StateReader header(image);
  parts.magic = header.u64();
  parts.version = header.u32();
  const std::uint64_t len = header.u64();
  parts.checksum = header.u64();
  const auto payload = header.bytes(static_cast<std::size_t>(len));
  parts.payload.assign(payload.begin(), payload.end());
  StateReader r(payload);
  const auto at = [&] { return payload.size() - r.remaining(); };
  r.i32();
  r.i32();
  r.i32();
  r.u8();
  parts.length_fields.push_back(at());  // extents
  r.vec_i32();
  r.u64();
  for (int s = 0; s < 3; ++s) {
    parts.length_fields.push_back(at());
    r.str();
  }
  r.i64();
  r.b();
  for (int blob = 0; blob < 4; ++blob) {
    parts.length_fields.push_back(at());
    const std::uint64_t blob_len = r.u64();
    if (blob == 0) parts.length_fields.push_back(at());  // load count
    r.bytes(static_cast<std::size_t>(blob_len));
  }
  return parts;
}

/// Frames `payload` with the header fields given (the layout of
/// EngineSnapshot::serialize).
std::vector<std::uint8_t> frame_image(std::uint64_t magic,
                                      std::uint32_t version,
                                      std::uint64_t len,
                                      std::uint64_t checksum,
                                      const std::vector<std::uint8_t>& payload) {
  StateWriter out;
  out.u64(magic);
  out.u32(version);
  out.u64(len);
  out.u64(checksum);
  out.bytes(payload);
  return plain(out);
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (std::size_t b = 0; b < 8 && at + b < bytes.size(); ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

LoadVector all_loads(const Engine& e) { return e.loads(); }
LoadVector all_loads(const ShardedEngine& e) { return e.gather_loads(); }

/// Restores a mutated image into `target`, which first runs a different
/// number of rounds than the image's run, so a partial restore would
/// show. A refused image must leave the target's own image unchanged; a
/// restored engine must step on with its ledger balanced. Returns
/// whether the image restored, or nullopt after a failure.
template <class RigT>
std::optional<bool> restore_mutant(RigT& target,
                                   const std::vector<std::uint8_t>& bytes) {
  target.step_rounds(3);
  const std::vector<std::uint8_t> before =
      EngineSnapshot::capture(*target.engine, &target.tracker).serialize();
  bool ok = false;
  try {
    EngineSnapshot::deserialize(bytes).restore(*target.engine,
                                               &target.tracker);
    ok = true;
  } catch (const serial_error&) {
  } catch (const invariant_error&) {
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "unclassified exception: " << ex.what();
    return std::nullopt;
  }
  if (!ok) {
    EXPECT_EQ(EngineSnapshot::capture(*target.engine, &target.tracker)
                  .serialize(),
              before)
        << "a refused image changed the engine";
    return false;
  }
  try {
    target.step_rounds(8);
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "restored engine failed to step: " << ex.what();
    return std::nullopt;
  }
  const auto& e = *target.engine;
  std::uint64_t sum = 0;  // wraps like the engine's own audit
  for (const Load x : all_loads(e)) sum += static_cast<std::uint64_t>(x);
  EXPECT_EQ(static_cast<Load>(sum), e.total());
  EXPECT_EQ(e.total(),
            e.base_total() + e.injected_total() - e.consumed_total());
  return true;
}

TEST(SnapshotMutation, MutatedImagesAreRefusedCleanlyOrRestoreSoundly) {
  // Valid images of runs that fill every component blob: core, a
  // stateful balancer, a workload (an admission backlog in one), and the
  // tracker window.
  struct Base {
    const char* balancer;
    Churn churn;
    ImageParts parts;
  };
  std::vector<Base> bases = {{"ROTOR-ROUTER", Churn::kPoisson, {}},
                             {"BOUNDED-ERROR", Churn::kBurst, {}},
                             {"CONT-MIMIC", Churn::kAdmission, {}},
                             {"RAND-ROUND", Churn::kAdversary, {}}};
  for (Base& base : bases) {
    Rig rig(base.balancer, base.churn, 1);
    rig.step_rounds(10);
    base.parts = split_image(
        EngineSnapshot::capture(*rig.engine, &rig.tracker).serialize());
  }
  const std::uint64_t extremes[] = {
      0,
      1,
      0xFFFFFFFFFFFFFFFFULL,  // -1
      0x7FFFFFFFFFFFFFFFULL,  // INT64_MAX
      0x8000000000000000ULL,  // INT64_MIN
      0x100000000ULL,
      0x7FFFFFFFULL};

  int refused = 0;
  int restored = 0;
  for (int i = 0; i < kMutationIterations; ++i) {
    Rng rng = mutation_rng(kMutationSeed, i);
    const Base& base = bases[pick(rng, bases.size())];
    const ImageParts& parts = base.parts;
    std::vector<std::uint8_t> payload = parts.payload;
    const std::size_t edits = 1 + pick(rng, 3);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (pick(rng, 4)) {
        case 0:  // bit flip
          payload[pick(rng, payload.size())] ^=
              static_cast<std::uint8_t>(1u << pick(rng, 8));
          break;
        case 1: {  // splice a slice of the clean payload anywhere
          const std::size_t from = pick(rng, parts.payload.size());
          const std::size_t len =
              1 + pick(rng, std::min<std::size_t>(
                                64, parts.payload.size() - from));
          payload.insert(
              payload.begin() +
                  static_cast<std::ptrdiff_t>(pick(rng, payload.size() + 1)),
              parts.payload.begin() + static_cast<std::ptrdiff_t>(from),
              parts.payload.begin() + static_cast<std::ptrdiff_t>(from + len));
          break;
        }
        case 2: {  // length-field edit
          const std::size_t at =
              parts.length_fields[pick(rng, parts.length_fields.size())];
          StateReader r(std::span<const std::uint8_t>(parts.payload)
                            .subspan(at, 8));
          const std::uint64_t len = r.u64();
          const std::uint64_t lies[] = {0, len - 1, len + 1, len + 8,
                                        len * 2, rng.next()};
          put_u64(payload, at, lies[pick(rng, std::size(lies))]);
          break;
        }
        default:  // an extreme 64-bit value over any field
          put_u64(payload, pick(rng, payload.size()),
                  extremes[pick(rng, std::size(extremes))]);
          break;
      }
    }
    // Most mutants are re-sealed under a valid length and checksum, so
    // the damage reaches the parsers and restore; the rest keep the
    // original header and must fail its checks.
    std::vector<std::uint8_t> bytes =
        pick(rng, 4) == 0
            ? frame_image(parts.magic, parts.version, parts.payload.size(),
                          parts.checksum, payload)
            : frame_image(parts.magic, parts.version, payload.size(),
                          EngineSnapshot::payload_checksum(parts.version,
                                                           payload),
                          payload);
    switch (pick(rng, 6)) {
      case 0:  // truncation
        bytes.resize(pick(rng, bytes.size() + 1));
        break;
      case 1:  // header payload-length edit
        put_u64(bytes, 12,
                extremes[pick(rng, std::size(extremes))] + pick(rng, 3));
        break;
      case 2:  // bit flip anywhere, header included
        bytes[pick(rng, bytes.size())] ^=
            static_cast<std::uint8_t>(1u << pick(rng, 8));
        break;
      default:
        break;
    }
    SCOPED_TRACE("seed " + std::to_string(kMutationSeed) + " iteration " +
                 std::to_string(i) + " (" + base.balancer + ", " +
                 churn_name(base.churn) + ", " +
                 std::to_string(bytes.size()) + " bytes)");

    // Every mutant meets a flat and a 3-shard target; both must decide
    // alike.
    Rig flat(base.balancer, base.churn, 1);
    ShardedRig sharded(base.balancer, base.churn, 3);
    const std::optional<bool> ok = restore_mutant(flat, bytes);
    const std::optional<bool> sharded_ok = restore_mutant(sharded, bytes);
    if (!ok || !sharded_ok) continue;
    EXPECT_EQ(*sharded_ok, *ok) << "flat and sharded targets disagree";
    ++(*ok ? restored : refused);
  }
  // Both outcomes must occur, or the mutator is not reaching restore.
  RecordProperty("refused", refused);
  RecordProperty("restored", restored);
  EXPECT_GT(refused, 0);
  EXPECT_GT(restored, 0);
}

// -------------------------------------------------- service + admission --

TEST(AdmissionQueue, CapsPerRoundInjectionAndDrainsFifo) {
  BurstWorkload inner(BurstWorkload::Params{.period = 100, .burst = 50});
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 8});
  q.reset(16, 7);
  LoadVector loads(16, 0);

  // Round 0 bursts 50 tokens onto one node; only 8 are admitted.
  q.prepare(0, loads);
  Load admitted = 0;
  for (NodeId u = 0; u < 16; ++u) admitted += std::max<Load>(q.delta(u, 0), 0);
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(q.backlog_total(), 42);

  // Subsequent quiet rounds drain the backlog 8 tokens at a time.
  for (Step t = 1; t <= 5; ++t) {
    q.prepare(t, loads);
    admitted = 0;
    for (NodeId u = 0; u < 16; ++u) {
      admitted += std::max<Load>(q.delta(u, t), 0);
    }
    EXPECT_EQ(admitted, 8) << "t=" << t;
  }
  EXPECT_EQ(q.backlog_total(), 2);
  q.prepare(6, loads);
  EXPECT_EQ(q.backlog_total(), 0);
}

std::vector<std::uint8_t> saved(const WorkloadProcess& w) {
  StateWriter out;
  w.save_state(out);
  return plain(out);
}

std::vector<Load> round_table(AdmissionQueue& q, NodeId n, Step t) {
  std::vector<Load> table;
  for (NodeId u = 0; u < n; ++u) table.push_back(q.delta(u, t));
  return table;
}

/// Round t the way an engine with `pool` runs it — prepare_round(), then
/// apply_dense() on a dense round or delta() on a sparse one — over loads
/// high enough that no consumption truncates; returns each node's delta.
std::vector<Load> engine_round(AdmissionQueue& q, NodeId n, Step t,
                               ThreadPool& pool) {
  constexpr Load kHigh = Load{1} << 40;
  LoadVector loads(static_cast<std::size_t>(n), kHigh);
  q.prepare_round(t, loads);
  WorkloadTally tally;
  if (const std::vector<NodeId>* list = q.affected_nodes()) {
    for (const NodeId u : *list) {
      tally.apply(u, loads[static_cast<std::size_t>(u)], q.delta(u, t));
    }
  } else {
    q.apply_dense(t, loads, &pool, tally);
  }
  std::vector<Load> deltas;
  for (const Load x : loads) deltas.push_back(x - kHigh);
  return deltas;
}

TEST(AdmissionQueue, LaterArrivalsMergeIntoTheirNodesPlace) {
  // Node 5 bursts, then node 2; node 5 bursts again while still queued.
  // The second burst joins node 5's place at the front, not the tail.
  class Script : public WorkloadProcess {
   public:
    std::string name() const override { return "script"; }
    void reset(NodeId, std::uint64_t) override {}
    Load delta(NodeId u, Step t) override {
      if (u == 5 && (t == 0 || t == 2)) return 10;
      if (u == 2 && t == 1) return 10;
      return 0;
    }
  };
  Script inner;
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 4});
  q.reset(8, 1);
  const LoadVector loads(8, 0);
  q.prepare(0, loads);  // admits 4 of node 5's 10
  q.prepare(1, loads);  // node 2 queues behind node 5; 4 more for node 5
  EXPECT_EQ(q.pending_nodes(), (std::vector<NodeId>{5, 2}));
  q.prepare(2, loads);  // node 5's 2 left + 10 new stay ahead of node 2
  EXPECT_EQ(q.delta(5, 2), 4);
  EXPECT_EQ(q.delta(2, 2), 0);
  EXPECT_EQ(q.pending_nodes(), (std::vector<NodeId>{5, 2}));
  EXPECT_EQ(q.backlog_total(), 18);
  EXPECT_EQ(q.backlog_entries(), 2u);
}

TEST(AdmissionQueue, StateIsIdenticalSeriallyAndOnEveryPool) {
  // 200 overloaded rounds, through prepare() serially and through the
  // engine hooks (engine_round) on pools of 1, 2, 3 and 8: every round's
  // deltas (the table, or what the pooled pass applied), the ring order,
  // the token total and the saved bytes must agree. The Poisson inner
  // process is dense (the pooled per-node pass); the burst one is sparse
  // on most rounds and dense on its drain rounds, so the table also
  // crosses between the two modes.
  constexpr NodeId kN = 1000;
  const auto make_inner = [](bool dense) -> std::unique_ptr<WorkloadProcess> {
    if (dense) {
      return std::make_unique<PoissonWorkload>(
          PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.2});
    }
    return std::make_unique<BurstWorkload>(BurstWorkload::Params{
        .period = 1, .burst = 40, .drain_period = 5, .drain_amount = 1});
  };
  for (const bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "poisson inner" : "burst inner");
    struct Leg {
      std::unique_ptr<WorkloadProcess> inner;
      std::unique_ptr<AdmissionQueue> queue;
      std::unique_ptr<ThreadPool> pool;  // null: serial prepare()
    };
    std::vector<Leg> legs;
    for (const int threads : {0, 1, 2, 3, 8}) {
      Leg leg;
      leg.inner = make_inner(dense);
      leg.queue = std::make_unique<AdmissionQueue>(
          *leg.inner, AdmissionQueue::Params{.round_cap = 16});
      leg.queue->reset(kN, 42);
      if (threads > 0) leg.pool = std::make_unique<ThreadPool>(threads);
      legs.push_back(std::move(leg));
    }
    // A second copy of the inner process replays what it offers, for the
    // queue's ledger: the table holds the round's consumption plus the
    // admitted tokens, which are offered + backlog before − backlog after,
    // at most the cap and exactly the cap while a backlog remains.
    std::unique_ptr<WorkloadProcess> replay = make_inner(dense);
    replay->reset(kN, 42);
    const LoadVector loads(kN, 0);
    for (Step t = 0; t < 200; ++t) {
      const Load backlog_before = legs[0].queue->backlog_total();
      legs[0].queue->prepare(t, loads);
      AdmissionQueue& ref = *legs[0].queue;
      const std::vector<Load> table = round_table(ref, kN, t);
      replay->prepare(t, loads);
      Load offered = 0;
      Load table_sum = 0;
      for (NodeId u = 0; u < kN; ++u) {
        const Load d = replay->delta(u, t);
        offered += std::max<Load>(d, 0);
        table_sum += table[static_cast<std::size_t>(u)] - std::min<Load>(d, 0);
      }
      const Load admitted = backlog_before + offered - ref.backlog_total();
      ASSERT_EQ(table_sum, admitted) << "round " << t;
      if (t == 0 && dense) {
        // The ring started empty, so it holds the arrivals in node order.
        const std::vector<NodeId> ring = ref.pending_nodes();
        ASSERT_TRUE(std::is_sorted(ring.begin(), ring.end()));
        ASSERT_GT(ring.size(), 1u);
      }
      ASSERT_LE(admitted, 16) << "round " << t;
      if (ref.backlog_total() > 0) {
        ASSERT_EQ(admitted, 16) << "round " << t;
      }
      for (std::size_t i = 1; i < legs.size(); ++i) {
        AdmissionQueue& q = *legs[i].queue;
        SCOPED_TRACE("pool " + std::to_string(legs[i].pool->parallelism()) +
                     " round " + std::to_string(t));
        ASSERT_EQ(engine_round(q, kN, t, *legs[i].pool), table);
        ASSERT_EQ(q.pending_nodes(), ref.pending_nodes());
        ASSERT_EQ(q.backlog_total(), ref.backlog_total());
        ASSERT_EQ(saved(q), saved(ref));
      }
    }
    EXPECT_GT(legs[0].queue->backlog_total(), 1000) << "not overloaded";
  }
}

TEST(AdmissionQueue, StateStaysBoundedUnderSustainedOverload) {
  // 10^4 rounds offering ~8x the cap: the token backlog grows without
  // bound, the state does not — at most one ring entry per node, 12 bytes
  // each in the saved state, whatever the round count.
  constexpr NodeId kN = 1 << 12;
  constexpr std::size_t kFixedBytes = 8 + 8 + 8;  // seed, ring tag, count
  PoissonWorkload inner(
      PoissonWorkload::Params{.arrival_rate = 0.125, .departure_rate = 0.0});
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 64});
  q.reset(kN, 9);
  ThreadPool pool(4);
  Load backlog_at_1000 = 0;
  for (Step t = 0; t < 10000; ++t) {
    engine_round(q, kN, t, pool);
    ASSERT_LE(q.backlog_entries(), static_cast<std::size_t>(kN));
    if (t == 999 || t == 9999) {
      const std::size_t bytes = saved(q).size();
      EXPECT_EQ(bytes, kFixedBytes + 12 * q.backlog_entries());
      EXPECT_LE(bytes, kFixedBytes + 12 * static_cast<std::size_t>(kN));
    }
    if (t == 999) backlog_at_1000 = q.backlog_total();
  }
  EXPECT_GT(q.backlog_total(), 5 * backlog_at_1000) << "not overloaded";
}

TEST(AdmissionQueue, FormatOneRequestListMergesOnLoad) {
  // A format-1 blob lists one (node, amount) entry per queued request;
  // loading sums each node's amounts and keeps first-occurrence order.
  BurstWorkload inner(BurstWorkload::Params{.period = 100, .burst = 50});
  AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 10});
  q.reset(16, 7);
  StateWriter v1;
  v1.u64(7);  // the burst process's seed
  const std::pair<NodeId, Load> requests[] = {{3, 5}, {1, 2}, {3, 4},
                                              {7, 1}, {1, 1}};
  v1.u64(std::size(requests));
  for (const auto& [node, amount] : requests) {
    v1.i32(node);
    v1.i64(amount);
  }
  StateReader r(v1.data());
  q.load_state(r);
  r.expect_done("format-1 admission blob");
  EXPECT_EQ(q.pending_nodes(), (std::vector<NodeId>{3, 1, 7}));
  EXPECT_EQ(q.backlog_total(), 13);
  EXPECT_EQ(q.backlog_entries(), 3u);

  // Saved again it is the format-2 ring, which loads to the same state.
  const std::vector<std::uint8_t> v2 = saved(q);
  EXPECT_EQ(v2.size(), 8 + 8 + 8 + 3 * 12u);
  BurstWorkload inner2(BurstWorkload::Params{.period = 100, .burst = 50});
  AdmissionQueue q2(inner2, AdmissionQueue::Params{.round_cap = 10});
  q2.reset(16, 7);
  StateReader r2(v2);
  q2.load_state(r2);
  EXPECT_EQ(saved(q2), v2);

  // The merged ring drains in first-occurrence order: node 3's 9, then 1
  // of node 1's 3 (the burst lands at t = 100 only).
  const LoadVector loads(16, 0);
  q.prepare(1, loads);
  EXPECT_EQ(q.delta(3, 1), 9);
  EXPECT_EQ(q.delta(1, 1), 1);
  EXPECT_EQ(q.pending_nodes(), (std::vector<NodeId>{1, 7}));

  // A format-2 ring must not repeat a node.
  StateWriter bad;
  bad.u64(7);
  bad.bytes(std::span<const std::uint8_t>(v2).subspan(8, 16));  // tag + count
  bad.i32(3);
  bad.i64(1);
  bad.i32(3);
  bad.i64(1);
  bad.i32(7);
  bad.i64(1);
  StateReader rb(bad.data());
  EXPECT_THROW(q2.load_state(rb), serial_error);
  EXPECT_EQ(saved(q2), v2) << "failed load mutated the queue";
}

/// Rewrites a format-2 snapshot image as format 1: version 1 in the
/// header and the admission blob as a request list in which each pending
/// node appears twice (its first token, then the rest at the list's end).
std::vector<std::uint8_t> as_format_one(const std::vector<std::uint8_t>& v2) {
  StateReader h(v2);
  const std::uint64_t magic = h.u64();
  EXPECT_EQ(h.u32(), EngineSnapshot::kFormatVersion);
  const std::uint64_t len = h.u64();
  h.u64();  // checksum
  StateReader p(h.bytes(static_cast<std::size_t>(len)));
  StateWriter out;
  out.i32(p.i32());  // n
  out.i32(p.i32());  // d
  out.i32(p.i32());  // self-loops
  out.u8(p.u8());    // structure tag
  out.vec_i32(p.vec_i32());
  out.u64(p.u64());  // adjacency hash
  for (int i = 0; i < 3; ++i) out.str(p.str());  // graph, balancer, workload
  out.i64(p.i64());                              // time
  out.b(p.b());                                  // tracker flag
  for (int blob = 0; blob < 4; ++blob) {
    const std::uint64_t size = p.u64();
    const auto bytes = p.bytes(static_cast<std::size_t>(size));
    if (blob != 2) {  // not the workload blob
      out.u64(size);
      out.bytes(bytes);
      continue;
    }
    StateReader w(bytes);
    StateWriter v1;
    v1.u64(w.u64());  // the inner burst process's seed
    w.u64();          // ring tag
    const std::uint64_t count = w.u64();
    std::vector<std::pair<NodeId, Load>> head, tail;
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId node = w.i32();
      const Load amount = w.i64();
      EXPECT_GE(amount, 2) << "need two requests per node";
      head.emplace_back(node, 1);
      tail.emplace_back(node, amount - 1);
    }
    v1.u64(2 * count);
    for (const auto* part : {&head, &tail}) {
      for (const auto& [node, amount] : *part) {
        v1.i32(node);
        v1.i64(amount);
      }
    }
    out.u64(v1.size());
    out.bytes(v1.data());
  }
  StateWriter image;
  image.u64(magic);
  image.u32(1);
  image.u64(out.size());
  image.u64(EngineSnapshot::payload_checksum(1, out.data()));
  image.bytes(out.data());
  return plain(image);
}

TEST(AdmissionQueue, FormatOneImageRestoresAndContinuesIdentically) {
  constexpr Step kT = 40;
  constexpr Step kSnapAt = 10;
  Rig full("SEND(floor)", Churn::kAdmission, 1);
  full.step_rounds(kT);

  std::vector<std::uint8_t> v1;
  {
    Rig half("SEND(floor)", Churn::kAdmission, 1);
    half.step_rounds(kSnapAt);
    const auto& q = dynamic_cast<const AdmissionQueue&>(*half.wl.process);
    ASSERT_GT(q.backlog_entries(), 0u) << "snapshot must hold a backlog";
    v1 = as_format_one(
        EngineSnapshot::capture(*half.engine, &half.tracker).serialize());
  }
  Rig resumed("SEND(floor)", Churn::kAdmission, 8);
  EngineSnapshot::deserialize(v1).restore(*resumed.engine, &resumed.tracker);
  ASSERT_EQ(resumed.engine->time(), kSnapAt);
  resumed.step_rounds(kT - kSnapAt);
  EXPECT_EQ(resumed.engine->loads(), full.engine->loads());
  EXPECT_EQ(resumed.engine->injected_total(), full.engine->injected_total());
  EXPECT_EQ(saved(*resumed.wl.process), saved(*full.wl.process));
}

TEST(AdmissionQueue, DenseInnerRunsIdenticallyFlatShardedAndRestored) {
  // Poisson demand behind the cap: the dense admission round, applied by
  // the flat engine serially and on a pool, by a 3-shard engine on a
  // pool, and through a mid-run snapshot — all the same trajectory.
  constexpr Step kT = 60;
  const Graph g = make_cycle(500);
  const LoadVector initial(static_cast<std::size_t>(g.num_nodes()), 2);
  struct Demand {
    PoissonWorkload inner{
        PoissonWorkload::Params{.arrival_rate = 0.3, .departure_rate = 0.1}};
    AdmissionQueue queue{inner, AdmissionQueue::Params{.round_cap = 20}};
    explicit Demand(NodeId n) { queue.reset(n, 5); }
  };
  // Runs kT rounds on a pool of `threads`, through a snapshot at snap_at.
  const auto flat_run = [&](int threads, Step snap_at) {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    Demand demand(g.num_nodes());
    ThreadPool pool(threads);
    Engine engine(g, EngineConfig{.self_loops = 2}, *b, initial);
    engine.set_workload(&demand.queue);
    engine.set_thread_pool(&pool);
    engine.run(snap_at);
    if (snap_at == kT) {
      return std::make_pair(engine.loads(), saved(demand.queue));
    }
    const std::vector<std::uint8_t> bytes =
        EngineSnapshot::capture(engine).serialize();
    auto b2 = make_balancer(Algorithm::kSendFloor, 11);
    Demand demand2(g.num_nodes());
    Engine resumed(g, EngineConfig{.self_loops = 2}, *b2, initial);
    resumed.set_workload(&demand2.queue);
    resumed.set_thread_pool(&pool);
    EngineSnapshot::deserialize(bytes).restore(resumed);
    resumed.run(kT - snap_at);
    return std::make_pair(resumed.loads(), saved(demand2.queue));
  };
  const auto want = flat_run(1, kT);
  EXPECT_EQ(flat_run(8, kT), want);
  EXPECT_EQ(flat_run(8, kT / 2), want);
  EXPECT_EQ(flat_run(1, kT / 3), want);

  auto b = make_balancer(Algorithm::kSendFloor, 11);
  Demand demand(g.num_nodes());
  ThreadPool pool(4);
  ShardedEngineConfig config;
  config.self_loops = 2;
  ShardedEngine sharded(g, config, *b, initial, 3);
  sharded.set_workload(&demand.queue);
  sharded.set_thread_pool(&pool);
  sharded.run(kT);
  EXPECT_EQ(sharded.gather_loads(), want.first);
  EXPECT_EQ(saved(demand.queue), want.second);
}

/// Forwards prepare() and delta() but neither prepare_round() nor
/// apply_dense(), as a timing or tracing wrapper is written: an engine then
/// runs the queue's point-query path, its table read through the default
/// hooks.
class PointQueryWrapper final : public WorkloadProcess {
 public:
  explicit PointQueryWrapper(WorkloadProcess& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  void reset(NodeId n, std::uint64_t seed) override { inner_->reset(n, seed); }
  void prepare(Step t, std::span<const Load> loads) override {
    inner_->prepare(t, loads);
  }
  bool prepare_reads_loads() const override {
    return inner_->prepare_reads_loads();
  }
  Load delta(NodeId u, Step t) override { return inner_->delta(u, t); }
  bool parallel_generate_safe() const override {
    return inner_->parallel_generate_safe();
  }
  const std::vector<NodeId>* affected_nodes() const override {
    return inner_->affected_nodes();
  }
  void save_state(StateWriter& w) const override { inner_->save_state(w); }
  void load_state(StateReader& r) override { inner_->load_state(r); }

 private:
  WorkloadProcess* inner_;
};

TEST(AdmissionQueue, WrapperPathMatchesDirectPath) {
  // Overloaded Poisson demand on low loads, the queue attached directly
  // (the fused pass into the loads) and through PointQueryWrapper (the
  // table): the same loads, ledger and saved queue every round, flat at 1,
  // 3 and 4 threads and sharded at k = 1 and 3. An overflowing round
  // fails with the same message on both paths.
  const Graph g = make_cycle(3001);
  const LoadVector initial = random_initial(g.num_nodes(), 2, 17);
  const Graph big = make_cycle(NodeId{1} << 14);
  const LoadVector big_initial(static_cast<std::size_t>(big.num_nodes()), 0);
  ThreadPool pool3(3);
  ThreadPool pool4(4);
  struct Leg {
    const char* name;
    ThreadPool* pool;
    int shards;  ///< 0: the flat engine
  };
  const Leg legs[] = {{"flat 1 thread", nullptr, 0},
                      {"flat 3 threads", &pool3, 0},
                      {"flat 4 threads", &pool4, 0},
                      {"sharded k=1", &pool4, 1},
                      {"sharded k=3", &pool3, 3}};
  struct Side {
    PoissonWorkload inner;
    AdmissionQueue queue;
    PointQueryWrapper wrapper;
    std::unique_ptr<Balancer> b = make_balancer(Algorithm::kSendFloor, 4);
    std::unique_ptr<Engine> flat;
    std::unique_ptr<ShardedEngine> sharded;

    Side(double rate, const Graph& g, const LoadVector& initial,
         const Leg& leg, bool wrapped)
        : inner(PoissonWorkload::Params{.arrival_rate = rate,
                                        .departure_rate = 0.4}),
          queue(inner, AdmissionQueue::Params{.round_cap = 24}),
          wrapper(queue) {
      queue.reset(g.num_nodes(), 8);
      WorkloadProcess* w = wrapped ? static_cast<WorkloadProcess*>(&wrapper)
                                   : &queue;
      if (leg.shards == 0) {
        flat = std::make_unique<Engine>(g, EngineConfig{.self_loops = 2}, *b,
                                        initial);
        flat->set_workload(w);
        flat->set_thread_pool(leg.pool);
      } else {
        sharded = std::make_unique<ShardedEngine>(
            g, ShardedEngineConfig{.self_loops = 2}, *b, initial, leg.shards);
        sharded->set_workload(w);
        sharded->set_thread_pool(leg.pool);
      }
    }
    void step() { flat ? flat->step_parallel() : sharded->step(); }
    std::vector<Load> loads() const {
      const LoadVector x = flat ? flat->loads() : sharded->gather_loads();
      return {x.begin(), x.end()};
    }
    std::vector<Load> ledger() const {
      if (flat) {
        return {flat->total(), flat->injected_total(), flat->consumed_total()};
      }
      return {sharded->total(), sharded->injected_total(),
              sharded->consumed_total()};
    }
    std::string overflow() {
      try {
        step();
      } catch (const invariant_error& e) {
        return e.what();
      }
      return "no overflow";
    }
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    Side direct(0.3, g, initial, leg, false);
    Side wrapped(0.3, g, initial, leg, true);
    for (Step t = 1; t <= 60; ++t) {
      direct.step();
      wrapped.step();
      ASSERT_EQ(direct.loads(), wrapped.loads()) << "round " << t;
      ASSERT_EQ(direct.ledger(), wrapped.ledger()) << "round " << t;
      ASSERT_EQ(saved(direct.queue), saved(wrapped.queue)) << "round " << t;
    }
    EXPECT_GT(direct.queue.backlog_total(), 0) << "not overloaded";
    // λ = 1e15 on 2^14 nodes offers past int64 in round 0.
    Side huge_direct(1e15, big, big_initial, leg, false);
    Side huge_wrapped(1e15, big, big_initial, leg, true);
    const std::string message = huge_direct.overflow();
    EXPECT_NE(message.find("AdmissionQueue: pending tokens overflow the "
                           "int64 ledger at node "),
              std::string::npos)
        << message;
    EXPECT_EQ(huge_wrapped.overflow(), message);
  }
}

TEST(AdmissionQueue, LedgerOverflowNamesNodeAndRound) {
  // λ = 1e15 (the largest rate PoissonWorkload accepts) at 2^14 nodes
  // offers ~1.6e19 tokens in round 0, past int64. The error names the
  // first node at which the backlog overflows, at any pool size.
  constexpr NodeId kN = 1 << 14;
  const auto message = [&](int threads) {
    PoissonWorkload inner(
        PoissonWorkload::Params{.arrival_rate = 1e15, .departure_rate = 0.0});
    AdmissionQueue q(inner, AdmissionQueue::Params{.round_cap = 8});
    q.reset(kN, 3);
    const LoadVector loads(kN, 0);
    try {
      if (threads == 0) {
        q.prepare(0, loads);
      } else {
        ThreadPool pool(threads);
        engine_round(q, kN, 0, pool);
      }
    } catch (const invariant_error& e) {
      return std::string(e.what());
    }
    return std::string("no overflow");
  };
  PoissonWorkload replay(
      PoissonWorkload::Params{.arrival_rate = 1e15, .departure_rate = 0.0});
  replay.reset(kN, 3);
  NodeId first = 0;
  for (Load total = 0;
       !__builtin_add_overflow(total, replay.delta(first, 0), &total);) {
    ++first;
  }
  const std::string serial = message(0);
  EXPECT_NE(serial.find("overflow"), std::string::npos) << serial;
  EXPECT_NE(serial.find("at node " + std::to_string(first) + " in round 0"),
            std::string::npos)
      << serial;
  EXPECT_EQ(message(4), serial);
  EXPECT_EQ(message(3), serial);

  // The sparse path checks too: one node offered 3·2^61 twice.
  class Huge : public WorkloadProcess {
   public:
    std::string name() const override { return "huge"; }
    void reset(NodeId, std::uint64_t) override {}
    void prepare(Step, std::span<const Load>) override {}
    const std::vector<NodeId>* affected_nodes() const override {
      return &nodes_;
    }
    Load delta(NodeId, Step) override { return Load{3} << 61; }

   private:
    std::vector<NodeId> nodes_{3};
  };
  Huge huge;
  AdmissionQueue q(huge, AdmissionQueue::Params{.round_cap = 1});
  q.reset(8, 0);
  const LoadVector loads(8, 0);
  q.prepare(0, loads);
  try {
    q.prepare(1, loads);
    FAIL() << "the second offer must overflow";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("at node 3 in round 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(BalancerService, SigtermStopsCheckpointsAndResumes) {
  const std::string ck = ::testing::TempDir() + "dlb_service_test.ck";
  std::remove(ck.c_str());
  BalancerService::clear_signal_requests();

  auto build = [&] {
    return std::make_unique<Rig>("SEND(floor)", Churn::kPoisson, 1);
  };

  // Uninterrupted reference.
  auto ref = build();
  ref->step_rounds(60);

  // Service leg 1: SIGTERM raised (through the real handler) after 25
  // rounds; the loop finishes the round, checkpoints, and returns.
  {
    auto rig = build();
    BalancerService::install_signal_handlers();
    BalancerService service(*rig->engine,
                            BalancerService::Options{.checkpoint_path = ck,
                                                     .stop_after = 25},
                            &rig->tracker);
    EXPECT_FALSE(service.restored());
    const Step ran = service.run(60);
    EXPECT_EQ(ran, 25);
    EXPECT_TRUE(BalancerService::stop_requested());
    EXPECT_GE(service.checkpoints_written(), 1);
  }
  BalancerService::clear_signal_requests();

  // Service leg 2: restore-on-start, run the remaining rounds.
  {
    auto rig = build();
    BalancerService service(*rig->engine,
                            BalancerService::Options{.checkpoint_path = ck},
                            &rig->tracker);
    EXPECT_TRUE(service.restored());
    EXPECT_EQ(rig->engine->time(), 25);
    service.run(60 - rig->engine->time());
    EXPECT_EQ(rig->engine->time(), 60);
    EXPECT_EQ(rig->engine->loads(), ref->engine->loads());
    EXPECT_EQ(rig->engine->injected_total(), ref->engine->injected_total());
    EXPECT_EQ(rig->engine->consumed_total(), ref->engine->consumed_total());
  }
  std::remove(ck.c_str());
}

TEST(BalancerService, CheckpointWriteFailuresAreRetriedAndCounted) {
  // Point the checkpoint at a directory that does not exist: every write
  // attempt fails, the failure counter advances once per attempt, and the
  // service keeps serving rounds on the (nonexistent) previous checkpoint.
  auto& reg = obs::MetricsRegistry::instance();
  const bool was_armed = reg.armed();
  reg.arm(true);
  const double failures_before =
      reg.sample("dlb_service_checkpoint_write_failures_total");

  Rig rig("SEND(floor)", Churn::kPoisson, 1);
  std::ostringstream log;
  BalancerService service(
      *rig.engine,
      BalancerService::Options{
          .checkpoint_path = ::testing::TempDir() +
                             "dlb_no_such_dir/nested/service.ck",
          .checkpoint_interval = 5,
          .checkpoint_write_retries = 2,
          .checkpoint_retry_backoff_ms = 0,
          .log = &log},
      &rig.tracker);

  EXPECT_EQ(service.run(10), 10);
  EXPECT_EQ(service.checkpoints_written(), 0);
  // Two periodic checkpoints (t=5, t=10) plus the shutdown checkpoint,
  // each retried twice: six failed attempts on the counter.
  const double failures_after =
      reg.sample("dlb_service_checkpoint_write_failures_total");
  EXPECT_EQ(failures_after - failures_before, 6.0);
  EXPECT_NE(log.str().find("failed"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("continuing on the previous checkpoint"),
            std::string::npos)
      << log.str();
  reg.arm(was_armed);
}

TEST(BalancerService, CheckpointFsyncIsObservedOnlyWhenArmed) {
  // fsync is its own checkpoint layer: write_file observes it in
  // dlb_snapshot_fsync_seconds when telemetry is armed, and not before.
  auto& reg = obs::MetricsRegistry::instance();
  const bool was_armed = reg.armed();
  const std::string path = ::testing::TempDir() + "dlb_fsync_test.ck";
  Rig rig("SEND(floor)", Churn::kPoisson, 1);
  rig.step_rounds(3);
  const EngineSnapshot snap =
      EngineSnapshot::capture(*rig.engine, &rig.tracker);
  reg.arm(false);
  const double before = reg.sample("dlb_snapshot_fsync_seconds");
  snap.write_file(path);
  EXPECT_EQ(reg.sample("dlb_snapshot_fsync_seconds"), before);
  reg.arm(true);
  snap.write_file(path);
  EXPECT_EQ(reg.sample("dlb_snapshot_fsync_seconds"), before + 1.0);
  reg.arm(was_armed);
  std::remove(path.c_str());
}

// ------------------------------------------------- sharded-engine interop --

TEST(SnapshotShardInterop, CoreStateBytesAreIdenticalOnEverySubstrate) {
  // The core-state layout is written in one place for both substrates:
  // after the same run, the flat engine and every shard count emit the
  // same bytes — a gather (cycle SEND(floor)) and a multi-touch balancer
  // (torus ROTOR-ROUTER), dense and sparse churn, so the published-stats
  // and scanned commits both land in the bytes.
  struct Tier {
    const char* label;
    Graph g;
    Algorithm algo;
    bool gathers;
  };
  const Tier tiers[] = {{"cycle SEND(floor)", make_cycle(60),
                         Algorithm::kSendFloor, true},
                        {"torus ROTOR-ROUTER", make_torus2d(8, 6),
                         Algorithm::kRotorRouter, false}};
  constexpr Step kRounds = 40;
  for (const Tier& tier : tiers) {
    const Graph& g = tier.g;
    const LoadVector initial = random_initial(g.num_nodes(), 300, 23);
    for (const bool sparse : {false, true}) {
      const std::string where = std::string(tier.label) +
                                (sparse ? " burst" : " poisson");
      const auto fresh_workload = [&]() -> std::unique_ptr<WorkloadProcess> {
        std::unique_ptr<WorkloadProcess> w;
        if (sparse) {
          w = std::make_unique<BurstWorkload>(
              BurstWorkload::Params{.period = 5, .burst = 64});
        } else {
          w = std::make_unique<PoissonWorkload>(PoissonWorkload::Params{
              .arrival_rate = 0.3, .departure_rate = 0.2});
        }
        w->reset(g.num_nodes(), 42);
        return w;
      };
      auto flat_b = make_balancer(tier.algo, 11);
      auto flat_w = fresh_workload();
      Engine flat(g, EngineConfig{.self_loops = g.degree()}, *flat_b,
                  initial);
      flat.set_workload(flat_w.get());
      flat.run(kRounds);
      StateWriter flat_bytes;
      flat.save_core_state(flat_bytes);
      for (const int k : {1, 3, 8}) {
        auto b = make_balancer(tier.algo, 11);
        auto w = fresh_workload();
        ShardedEngine sharded(
            g, ShardedEngineConfig{.self_loops = g.degree()}, *b, initial, k);
        ASSERT_EQ(sharded.windowed(), tier.gathers) << where;
        sharded.set_workload(w.get());
        sharded.run(kRounds);
        StateWriter bytes;
        sharded.save_core_state(bytes);
        EXPECT_EQ(bytes.take(), flat_bytes.data())
            << where << " k=" << k;
      }
    }
  }
}

TEST(SnapshotShardInterop, KShardImageRestoresIntoOneShardAndFlat) {
  // The shard count is an execution choice, not persisted state: an image
  // captured from a 3-shard run must restore into a 1-shard engine AND
  // into the flat Engine, both continuing byte-identically to an
  // uninterrupted flat reference — workload ledger included.
  const Graph g = make_torus2d(8, 6);
  const LoadVector initial = random_initial(g.num_nodes(), 300, 17);
  constexpr Step kHalf = 24;
  const auto fresh_workload = [] {
    auto w = std::make_unique<PoissonWorkload>(
        PoissonWorkload::Params{.arrival_rate = 0.6, .departure_rate = 0.5});
    return w;
  };

  // Uninterrupted flat reference over 2×kHalf rounds.
  auto ref_b = make_balancer(Algorithm::kSendFloor, 11);
  auto ref_w = fresh_workload();
  ref_w->reset(g.num_nodes(), /*seed=*/42);
  Engine ref(g, EngineConfig{.self_loops = 1}, *ref_b, initial);
  ref.set_workload(ref_w.get());
  for (Step t = 0; t < 2 * kHalf; ++t) ref.step();

  // Captured leg: 3 shards (the gather plan on the torus).
  std::vector<std::uint8_t> bytes;
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    ShardedEngine sharded(g, ShardedEngineConfig{.self_loops = 1}, *b,
                          initial, 3);
    sharded.set_workload(w.get());
    sharded.run(kHalf);
    bytes = EngineSnapshot::capture(sharded).serialize();
  }

  // Restore at shard count 1 and continue.
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    ShardedEngine one(g, ShardedEngineConfig{.self_loops = 1}, *b, initial,
                      1);
    one.set_workload(w.get());
    EngineSnapshot::deserialize(bytes).restore(one);
    ASSERT_EQ(one.time(), kHalf);
    one.run(kHalf);
    EXPECT_EQ(one.gather_loads(), ref.loads());
    EXPECT_EQ(one.injected_total(), ref.injected_total());
    EXPECT_EQ(one.consumed_total(), ref.consumed_total());
    EXPECT_EQ(one.min_load_seen(), ref.min_load_seen());
  }

  // The same k-shard image restores into the FLAT engine.
  {
    auto b = make_balancer(Algorithm::kSendFloor, 11);
    auto w = fresh_workload();
    w->reset(g.num_nodes(), /*seed=*/42);
    Engine flat(g, EngineConfig{.self_loops = 1}, *b, initial);
    flat.set_workload(w.get());
    EngineSnapshot::deserialize(bytes).restore(flat);
    ASSERT_EQ(flat.time(), kHalf);
    for (Step t = 0; t < kHalf; ++t) flat.step();
    EXPECT_EQ(flat.loads(), ref.loads());
    EXPECT_EQ(flat.min_load_seen(), ref.min_load_seen());
  }

  // And a FLAT image restores into 8 shards — the multi-touch plan too
  // (ROTOR-ROUTER does not gather).
  {
    auto half_b = make_balancer(Algorithm::kRotorRouter, 11);
    Engine half(g, EngineConfig{.self_loops = 1}, *half_b, initial);
    for (Step t = 0; t < kHalf; ++t) half.step();
    const auto flat_bytes = EngineSnapshot::capture(half).serialize();

    auto full_b = make_balancer(Algorithm::kRotorRouter, 11);
    Engine full(g, EngineConfig{.self_loops = 1}, *full_b, initial);
    for (Step t = 0; t < 2 * kHalf; ++t) full.step();

    auto b = make_balancer(Algorithm::kRotorRouter, 11);
    ShardedEngine eight(g, ShardedEngineConfig{.self_loops = 1}, *b, initial,
                        8);
    EngineSnapshot::deserialize(flat_bytes).restore(eight);
    ASSERT_EQ(eight.time(), kHalf);
    eight.run(kHalf);
    EXPECT_EQ(eight.gather_loads(), full.loads());
    EXPECT_EQ(eight.min_load_seen(), full.min_load_seen());
  }
}

}  // namespace
}  // namespace dlb
