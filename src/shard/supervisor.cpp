#include "shard/supervisor.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"

namespace dlb {

namespace {

/// Supervisor counters and the recovery-latency histogram (leaked; see
/// MetricsRegistry::instance).
struct SupervisorMetrics {
  obs::Counter& crashes;
  obs::Counter& recoveries;
  obs::Counter& checkpoints;
  obs::Counter& replayed_rounds;
  obs::Histogram& recovery_seconds;
};

SupervisorMetrics& supervisor_metrics() {
  static SupervisorMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return new SupervisorMetrics{
        reg.counter("dlb_shard_crashes_total",
                    "Shard crash-kills the supervisor injected or observed."),
        reg.counter("dlb_shard_recoveries_total",
                    "Completed shard recoveries (one checkpoint rollback "
                    "per round with dead shards)."),
        reg.counter("dlb_shard_checkpoints_total",
                    "Recovery checkpoints captured by the supervisor."),
        reg.counter("dlb_shard_replayed_rounds_total",
                    "Rounds the whole engine re-ran from a checkpoint "
                    "during recoveries."),
        reg.histogram("dlb_shard_recovery_seconds",
                      "Wall-clock latency of one recovery (checkpoint "
                      "restore + re-run of the lost rounds).",
                      obs::phase_seconds_bounds()),
    };
  }();
  return *m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardSupervisor::ShardSupervisor(ShardedEngine& engine, Options opts)
    : engine_(&engine), opts_(std::move(opts)) {
  DLB_REQUIRE(opts_.checkpoint_interval >= 0,
              "shard supervisor: negative checkpoint interval");
  for (const FaultPlan::Crash& c : opts_.fault_plan.crashes) {
    DLB_REQUIRE(c.shard >= 0 && c.shard < engine_->shards(),
                "shard supervisor: crash plan names a shard out of range");
    DLB_REQUIRE(c.after_round >= engine_->time(),
                "shard supervisor: crash plan names an already-passed round");
    crashes_.push_back(CrashEvent{c, false});
  }
  take_checkpoint();
}

void ShardSupervisor::take_checkpoint() {
  obs::TraceSpan span("checkpoint", "supervisor", "t", engine_->time());
  checkpoint_ = EngineSnapshot::capture(*engine_);
  supervisor_metrics().checkpoints.inc();
}

void ShardSupervisor::recover() {
  const auto t0 = std::chrono::steady_clock::now();
  obs::TraceSpan span("recover", "supervisor", "dead",
                      engine_->dead_shards());
  const Step target = engine_->time();
  // Frames of the abandoned timeline (including a fault injector's
  // delayed posts) must never surface in the re-run.
  engine_->channel().reset();
  checkpoint_->restore(*engine_);  // also revives the dead shards
  // Deterministic components + deterministic (keyed) faults: the re-run
  // reaches the exact bytes the crashed timeline would have.
  const Step lost = target - checkpoint_->time();
  engine_->run(lost);
  supervisor_metrics().replayed_rounds.inc(static_cast<std::uint64_t>(lost));
  supervisor_metrics().recoveries.inc();
  supervisor_metrics().recovery_seconds.observe(seconds_since(t0));
}

void ShardSupervisor::step() {
  for (CrashEvent& ev : crashes_) {
    if (ev.fired || ev.crash.after_round != engine_->time()) continue;
    ev.fired = true;
    if (!engine_->shard_dead(ev.crash.shard)) {
      engine_->kill_shard(ev.crash.shard);
      supervisor_metrics().crashes.inc();
    }
  }
  if (engine_->dead_shards() > 0) recover();
  engine_->step();
  if (opts_.checkpoint_interval > 0 &&
      engine_->time() % opts_.checkpoint_interval == 0) {
    take_checkpoint();
  }
}

void ShardSupervisor::run(Step steps) {
  DLB_REQUIRE(steps >= 0, "shard supervisor: negative step count");
  for (Step i = 0; i < steps; ++i) step();
}

}  // namespace dlb
