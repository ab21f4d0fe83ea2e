#include "obs/engine_telemetry.hpp"

#include "obs/trace.hpp"

namespace dlb::obs {

namespace {

Labels kind_labels(const char* kind) { return {{"engine", kind}}; }

}  // namespace

Histogram& phase(const char* kind, const char* name) {
  return MetricsRegistry::instance().histogram(
      "dlb_engine_phase_seconds",
      "Wall-clock latency of one engine phase within a round.",
      phase_seconds_bounds(), {{"engine", kind}, {"phase", name}});
}

EngineTelemetry::EngineTelemetry(const char* kind)
    : rounds(MetricsRegistry::instance().counter(
          "dlb_engine_rounds_total", "Synchronous rounds executed.",
          kind_labels(kind))),
      round_seconds(MetricsRegistry::instance().histogram(
          "dlb_engine_round_seconds",
          "Wall-clock latency of one round (workload apply + decide/apply + "
          "bookkeeping).",
          phase_seconds_bounds(), kind_labels(kind))),
      time(MetricsRegistry::instance().gauge(
          "dlb_engine_time", "Engine round counter (t).", kind_labels(kind))),
      discrepancy(MetricsRegistry::instance().gauge(
          "dlb_engine_discrepancy",
          "max-min load from the engine's cached round statistics.",
          kind_labels(kind))),
      min_load(MetricsRegistry::instance().gauge(
          "dlb_engine_min_load", "Minimum node load (cached stats).",
          kind_labels(kind))),
      max_load(MetricsRegistry::instance().gauge(
          "dlb_engine_max_load", "Maximum node load (cached stats).",
          kind_labels(kind))),
      injected(MetricsRegistry::instance().gauge(
          "dlb_engine_injected_tokens",
          "Tokens injected by the attached workload since adopt_loads "
          "(conservation-ledger total; survives snapshot restore).",
          kind_labels(kind))),
      consumed(MetricsRegistry::instance().gauge(
          "dlb_engine_consumed_tokens",
          "Tokens consumed by the attached workload since adopt_loads.",
          kind_labels(kind))),
      workload_prepare(phase(kind, "workload_prepare")),
      workload_apply(phase(kind, "workload_apply")),
      audit(phase(kind, "audit")) {}

}  // namespace dlb::obs
