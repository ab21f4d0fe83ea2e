#include "core/round_engine.hpp"

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

void RoundEngineBase::run_round(ThreadPool* pool) {
  const std::uint64_t t0 = ledger_.round_begin();
  {
    obs::TraceSpan span("round", engine_kind(), "t", time() + 1);
    if (workload_ != nullptr) {
      ledger_.apply_workload(*workload_, engine_kind(), pool, loads_);
    }
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
