#include "core/round_engine.hpp"

#include <mutex>
#include <utility>

#include "dynamics/workload.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

RoundEngineBase::RoundEngineBase() = default;
RoundEngineBase::~RoundEngineBase() = default;

void RoundEngineBase::adopt_loads(LoadVector initial) {
  ledger_.adopt(initial);
  loads_ = std::move(initial);
}

void RoundEngineBase::do_step_parallel(ThreadPool& /*pool*/) { do_step(); }

void RoundEngineBase::save_core_state(StateWriter& w) const {
  ledger_.save_core(w, loads_);
}

void RoundEngineBase::load_core_state(StateReader& r) {
  const RoundLedger::Core core = RoundLedger::read_core(r, loads_.size());
  loads_.assign(core.loads.begin(), core.loads.end());
  ledger_.restore(core.ledger);
}

void RoundEngineBase::apply_workload(ThreadPool* pool) {
  if (workload_ == nullptr) return;
  WorkloadProcess& w = *workload_;
  const Step t = time();
  ledger_.apply_workload(
      w, engine_kind(), pool, static_cast<NodeId>(loads_.size()),
      [&] { return std::span<const Load>(loads_); },
      [&](NodeId u, Load d, WorkloadTally& tally) {
        tally.apply(u, loads_[static_cast<std::size_t>(u)], d);
      },
      [&](WorkloadTally& tally) {
        // Per-chunk tallies merged under a lock, once per chunk: the
        // merge is order-independent, so thread count never shows.
        std::mutex mu;
        const auto body = [&](std::int64_t first, std::int64_t last) {
          WorkloadTally part;
          part.apply_filled(w, t, static_cast<NodeId>(first),
                            std::span<Load>(loads_).subspan(
                                static_cast<std::size_t>(first),
                                static_cast<std::size_t>(last - first)));
          const std::lock_guard<std::mutex> lock(mu);
          tally.merge(part);
        };
        const auto n = static_cast<std::int64_t>(loads_.size());
        if (pool != nullptr && w.parallel_generate_safe()) {
          pool->for_ranges(n, body);
        } else {
          body(0, n);
        }
      });
}

void RoundEngineBase::run_round(ThreadPool* pool) {
  const std::uint64_t t0 = ledger_.round_begin();
  {
    obs::TraceSpan span("round", engine_kind(), "t", time() + 1);
    apply_workload(pool);
    if (pool != nullptr) {
      do_step_parallel(*pool);
    } else {
      do_step();
    }
    ledger_.end_round(engine_kind(), [&] {
      LoadScan scan;
      scan.add(loads_);
      return scan;
    });
  }
  ledger_.round_end(t0, engine_kind());
}

void RoundEngineBase::step() { run_round(nullptr); }

void RoundEngineBase::step_parallel() {
  run_round(pool_ != nullptr && pool_->parallelism() > 1 ? pool_ : nullptr);
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
