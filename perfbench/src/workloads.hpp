// The four perfbench workloads. Each builds its inputs from o.seed, runs
// for about o.seconds, checks its outputs, and fills `r` with the
// end-to-end metrics (always) and the per-layer metrics (traced runs).
// README.md beside this directory says why each workload exists.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Each run sets up kSetupReps times before it measures; setup_s is the
/// median. table1-sweep, whose set-up is short, adds one per sweep.
inline constexpr int kSetupReps = 3;
/// Intra-round worker threads of the pooled workloads.
inline constexpr int kThreads = 4;

void run_service_overload(const Options& o, Result& r, Spans& spans);
void run_cycle_serial(const Options& o, Result& r, Spans& spans);
void run_torus_sharded(const Options& o, Result& r, Spans& spans);
void run_table1_sweep(const Options& o, Result& r, Spans& spans);

}  // namespace perfbench
