// ShardSupervisor: checkpoint-based crash recovery for the sharded engine.
//
// The framed channel protocol (framing.hpp) turns message-level faults —
// drops, duplicates, corruption, delays — back into the byte-exact round
// via drain-time detection and bounded re-post. What it cannot survive is
// a *sender that no longer exists*: a crashed shard leaves its streams
// permanently incomplete and its slice of the load vector gone. The
// supervisor closes that gap with checkpoint/rollback:
//
//   * every `checkpoint_interval` rounds it captures an EngineSnapshot of
//     the engine — the same image a service checkpoint writes, so each
//     checkpoint also pays the adjacency hash and the payload checksum;
//   * when a shard dies (a FaultPlan crash, or any caller of
//     ShardedEngine::kill_shard), it resets the channel, restores the
//     newest snapshot into the engine (every component, through the
//     snapshot's fingerprint check and refuse-then-roll-back restore),
//     and re-runs the lost rounds through the engine itself.
//
// Every balancer is deterministic given its checkpointed state, and the
// workload and fault injector are keyed counter RNGs, so the re-run lands
// on the byte-identical state the uninterrupted run would have reached —
// for every balancer, with no per-balancer gate. The fault-equivalence
// gate in tests/test_shard_fault.cpp asserts it for every registered
// balancer.
#pragma once

#include <optional>
#include <vector>

#include "service/snapshot.hpp"
#include "shard/faulty_channel.hpp"  // FaultPlan
#include "shard/sharded_engine.hpp"

namespace dlb {

class ShardSupervisor {
 public:
  struct Options {
    /// Rounds between checkpoints; a recovery re-runs at most this many
    /// rounds. 0 disables periodic checkpoints (the construction-time
    /// checkpoint still anchors recovery).
    Step checkpoint_interval = 16;
    /// Crash schedule ("kill shard s once round R has completed") —
    /// typically FaultPlan::parse(...).crashes; message-fault knobs in
    /// the same plan belong to a FaultyChannel, not the supervisor.
    FaultPlan fault_plan;
  };

  /// Attaches to `engine` (not owned; must outlive the supervisor) and
  /// takes the anchoring checkpoint at the current time.
  ShardSupervisor(ShardedEngine& engine, Options opts);

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// One supervised round: fire due crashes from the fault plan, roll
  /// back if any shard is dead, step the engine, and take a periodic
  /// checkpoint when the interval divides the new time.
  void step();
  /// `steps` supervised rounds.
  void run(Step steps);

  ShardedEngine& engine() noexcept { return *engine_; }
  /// Time of the newest checkpoint (the rollback anchor).
  Step checkpoint_time() const noexcept { return checkpoint_->time(); }
  /// Captures a checkpoint now (also called periodically by step()).
  void take_checkpoint();

 private:
  struct CrashEvent {
    FaultPlan::Crash crash;
    bool fired = false;
  };

  void recover();

  ShardedEngine* engine_;
  Options opts_;
  std::vector<CrashEvent> crashes_;
  std::optional<EngineSnapshot> checkpoint_;  ///< the rollback anchor
};

}  // namespace dlb
