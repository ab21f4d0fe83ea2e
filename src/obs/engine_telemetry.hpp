// EngineTelemetry: the registry handles every round engine publishes
// through. One bundle per engine *kind* ("flat", "sharded", "irregular",
// "dimexchange") — handles are process-wide series, so several engine
// instances of the same kind aggregate, which is exactly what the
// exposition wants (the service runs one engine; tests run many).
//
// RoundLedger creates the bundle lazily, on the first round that
// executes with the registry armed, applies a workload, or scans its
// loads while tracing (its phase scopes take the workload and audit
// histograms); a disarmed, untraced static run never registers the
// series and the round loop pays a single relaxed load.
#pragma once

#include "obs/metrics.hpp"

namespace dlb::obs {

/// dlb_engine_phase_seconds{engine=kind, phase=name}.
Histogram& phase(const char* kind, const char* name);

struct EngineTelemetry {
  explicit EngineTelemetry(const char* kind);

  Counter& rounds;           ///< dlb_engine_rounds_total
  Histogram& round_seconds;  ///< dlb_engine_round_seconds
  Gauge& time;               ///< dlb_engine_time (round counter)
  Gauge& discrepancy;        ///< dlb_engine_discrepancy (cached stats only)
  Gauge& min_load;           ///< dlb_engine_min_load
  Gauge& max_load;           ///< dlb_engine_max_load
  Gauge& injected;           ///< dlb_engine_injected_tokens (workload ledger)
  Gauge& consumed;           ///< dlb_engine_consumed_tokens
  /// dlb_engine_phase_seconds{phase="workload_prepare"|"workload_apply"}:
  /// the attached workload's prepare hook (admission included) and the
  /// application of its deltas to the loads.
  Histogram& workload_prepare;
  Histogram& workload_apply;
  /// dlb_engine_phase_seconds{phase="audit"}: the ledger's end-of-round
  /// scan of the loads, observed only on rounds that scan.
  Histogram& audit;
};

}  // namespace dlb::obs
