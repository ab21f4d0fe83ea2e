#include "core/round_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "dynamics/workload.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

RoundEngineBase::RoundEngineBase() = default;
RoundEngineBase::~RoundEngineBase() = default;

std::uint64_t RoundEngineBase::round_begin() const noexcept {
  if (!obs::metrics_armed()) return 0;
  return mono_ns();
}

obs::EngineTelemetry& RoundEngineBase::telemetry() {
  if (!telemetry_) {
    telemetry_ = std::make_unique<obs::EngineTelemetry>(engine_kind());
  }
  return *telemetry_;
}

void RoundEngineBase::round_end(std::uint64_t start_ns) {
  if (start_ns == 0) return;
  obs::EngineTelemetry& tel = telemetry();
  tel.rounds.inc();
  tel.round_seconds.observe(static_cast<double>(mono_ns() - start_ns) * 1e-9);
  tel.time.set(t_);
  tel.injected.set(injected_total_);
  tel.consumed.set(consumed_total_);
  // Cached stats only. Forcing a refresh here would change
  // min_load_seen_'s history in deferred-stats mode — telemetry must
  // observe, never steer.
  if (!stats_dirty_) {
    tel.min_load.set(min_load_);
    tel.max_load.set(max_load_);
    tel.discrepancy.set(max_load_ - min_load_);
  }
}

void RoundEngineBase::adopt_loads(LoadVector initial,
                                  ConservationPolicy audit) {
  DLB_REQUIRE(!initial.empty(), "round engine: empty load vector");
  DLB_REQUIRE(audit.interval >= 1, "round engine: audit interval must be >= 1");
  loads_ = std::move(initial);
  audit_ = audit;
  total_ = total_load(loads_);
  base_total_ = total_;
  injected_total_ = 0;
  consumed_total_ = 0;
  const auto [lo, hi] = std::minmax_element(loads_.begin(), loads_.end());
  min_load_ = *lo;
  max_load_ = *hi;
  min_load_seen_ = min_load_;
  stats_dirty_ = false;
}

void RoundEngineBase::refresh_stats(bool audit_total) const {
  Load lo = loads_[0];
  Load hi = loads_[0];
  if (audit_total) {
    Load sum = 0;
    for (Load v : loads_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    DLB_REQUIRE(sum == total_, "token conservation violated by engine step");
  } else {
    for (Load v : loads_) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  min_load_ = lo;
  max_load_ = hi;
  min_load_seen_ = std::min(min_load_seen_, lo);
  stats_dirty_ = false;
}

void RoundEngineBase::do_step_parallel(ThreadPool& /*pool*/) { do_step(); }

void RoundEngineBase::save_core_state(StateWriter& w) const {
  w.vec_i64(loads_);
  w.i64(t_);
  w.i64(total_);
  w.i64(base_total_);
  w.i64(injected_total_);
  w.i64(consumed_total_);
  w.i64(min_load_);
  w.i64(max_load_);
  w.i64(min_load_seen_);
  w.b(stats_dirty_);
}

void RoundEngineBase::load_core_state(StateReader& r) {
  const std::vector<std::int64_t> loads = r.vec_i64();
  if (loads.size() != loads_.size()) {
    throw serial_error("engine core state: load vector size mismatch");
  }
  loads_.assign(loads.begin(), loads.end());
  t_ = r.i64();
  total_ = r.i64();
  base_total_ = r.i64();
  injected_total_ = r.i64();
  consumed_total_ = r.i64();
  min_load_ = r.i64();
  max_load_ = r.i64();
  min_load_seen_ = r.i64();
  stats_dirty_ = r.b();
  round_stats_valid_ = false;
}

void RoundEngineBase::apply_workload(ThreadPool* pool) {
  if (workload_ == nullptr) return;
  obs::EngineTelemetry& tel = telemetry();
  {
    obs::PhaseScope phase(tel.workload_prepare, "workload_prepare",
                          engine_kind(), "t", t_ + 1);
    if (pool != nullptr && pool->parallelism() > 1) {
      workload_->prepare_parallel(t_, loads_, *pool);
    } else {
      workload_->prepare(t_, loads_);
    }
  }
  obs::PhaseScope phase(tel.workload_apply, "workload_apply", engine_kind(),
                        "t", t_ + 1);
  // Sparse fast path: a process that knows its round's touched-node set
  // (burst hotspot, adversary targets) hands it over and the engine
  // applies exactly those deltas — no n virtual delta() calls per round.
  if (const std::vector<NodeId>* sparse = workload_->affected_nodes()) {
    Load inj = 0;
    Load con = 0;
    // Always-on bounds check: the list crosses a trust boundary (any
    // third-party process can return one) and is tiny by design, so the
    // guard is free — unlike the dense path, a bad entry here would
    // otherwise corrupt the heap in release builds.
    for (const NodeId u : *sparse) {
      DLB_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < loads_.size(),
                  "workload affected node out of range");
      const Load d = workload_->delta(u, t_);
      Load& x = loads_[static_cast<std::size_t>(u)];
      if (d > 0) {
        x += d;
        inj += d;
      } else if (d < 0) {
        const Load take = std::min(-d, std::max<Load>(x, 0));
        x -= take;
        con += take;
      }
    }
    injected_total_ += inj;
    consumed_total_ += con;
    total_ += inj - con;
    return;
  }
  const auto n = static_cast<std::int64_t>(loads_.size());
  // Per-chunk partials, combined with commutative integer adds: the
  // totals are identical for any chunking, so thread count never shows.
  std::atomic<Load> injected{0};
  std::atomic<Load> consumed{0};
  const auto body = [&](std::int64_t first, std::int64_t last) {
    Load inj = 0;
    Load con = 0;
    for (std::int64_t i = first; i < last; ++i) {
      const Load d = workload_->delta(static_cast<NodeId>(i), t_);
      Load& x = loads_[static_cast<std::size_t>(i)];
      if (d > 0) {
        x += d;
        inj += d;
      } else if (d < 0) {
        const Load take = std::min(-d, std::max<Load>(x, 0));
        x -= take;
        con += take;
      }
    }
    injected.fetch_add(inj, std::memory_order_relaxed);
    consumed.fetch_add(con, std::memory_order_relaxed);
  };
  if (pool != nullptr && pool->parallelism() > 1 &&
      workload_->parallel_generate_safe()) {
    pool->for_ranges(n, body);
  } else {
    body(0, n);
  }
  const Load inj = injected.load(std::memory_order_relaxed);
  const Load con = consumed.load(std::memory_order_relaxed);
  injected_total_ += inj;
  consumed_total_ += con;
  total_ += inj - con;
}

void RoundEngineBase::after_step() {
  ++t_;
  const bool audit =
      audit_.enabled && (audit_.interval == 1 || t_ % audit_.interval == 0);
  if (audit) {
    // The audit re-sums the loads anyway, and min/max ride that same
    // pass for free — published stats are simply superseded.
    refresh_stats(true);
  } else if (round_stats_valid_) {
    // The round's own sweep already produced min/max (fused apply pull /
    // scatter finalize); commit without another O(n) pass. This also
    // means deferred-stats mode loses nothing on engines that publish:
    // the observables stay exact at zero extra cost.
    min_load_ = round_min_;
    max_load_ = round_max_;
    min_load_seen_ = std::min(min_load_seen_, round_min_);
    stats_dirty_ = false;
  } else if (deferred_stats_) {
    stats_dirty_ = true;
  } else {
    refresh_stats(false);
  }
  round_stats_valid_ = false;
}

void RoundEngineBase::step() {
  const std::uint64_t t0 = round_begin();
  {
    obs::TraceSpan span("round", engine_kind(), "t", t_ + 1);
    apply_workload(nullptr);
    do_step();
    after_step();
  }
  round_end(t0);
}

void RoundEngineBase::step_parallel() {
  const std::uint64_t t0 = round_begin();
  {
    obs::TraceSpan span("round", engine_kind(), "t", t_ + 1);
    if (pool_ != nullptr && pool_->parallelism() > 1) {
      apply_workload(pool_);
      do_step_parallel(*pool_);
    } else {
      apply_workload(nullptr);
      do_step();
    }
    after_step();
  }
  round_end(t0);
}

void RoundEngineBase::run(Step steps) {
  DLB_REQUIRE(steps >= 0, "run: negative step count");
  for (Step i = 0; i < steps; ++i) step_parallel();
}

Step RoundEngineBase::run_until_discrepancy(Load target, Step max_steps) {
  DLB_REQUIRE(max_steps >= 0, "run_until_discrepancy: negative cap");
  for (Step i = 0; i < max_steps; ++i) {
    if (discrepancy() <= target) return i;
    step_parallel();
  }
  return max_steps;
}

}  // namespace dlb
