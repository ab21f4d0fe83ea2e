// BalancerService: a long-running, restartable wrapper around an Engine.
//
// The paper's experiments run T rounds and exit; a deployed balancer runs
// until told to stop, checkpoints its state so a crash or redeploy loses
// nothing, and reports health on demand. This class supplies that service
// loop:
//
//   * periodic checkpointing — every `checkpoint_interval` rounds the
//     full engine state (EngineSnapshot) is written atomically to
//     `checkpoint_path` (write-to-temp + rename, so a crash mid-write
//     never corrupts the previous good checkpoint);
//   * restore-on-start — if the checkpoint file exists when the service
//     is constructed, the engine resumes from it; by the equivalence
//     contract the continued run is byte-identical to one that was never
//     interrupted. A corrupt or mismatched checkpoint throws instead of
//     silently starting fresh;
//   * graceful shutdown — SIGTERM/SIGINT set a flag the loop polls once
//     per round: the in-flight round completes, a final checkpoint is
//     written, metrics are dumped, and run() returns. No state is lost;
//   * metrics on demand — SIGUSR1 (or the metrics interval) dumps a
//     plain-text status block: round, discrepancy, conservation ledger,
//     backlog, steady-state summary, checkpoint count;
//   * per-round CSV streaming — `csv` receives one row per completed
//     round; reopened in append mode across a restart, the concatenated
//     stream equals the uninterrupted run's byte-for-byte (the CI
//     restart-equivalence leg asserts exactly this).
//
// Signal handlers only set volatile sig_atomic_t flags; all real work
// happens on the service thread between rounds. Tests drive the same
// paths deterministically via Options::stop_after, which raises SIGTERM
// from inside the loop after a fixed number of rounds.
#pragma once

#include <iosfwd>
#include <string>

#include "core/engine.hpp"
#include "dynamics/steady_stats.hpp"
#include "service/snapshot.hpp"

namespace dlb {

class BalancerService {
 public:
  struct Options {
    /// Snapshot file; empty disables checkpointing AND restore.
    std::string checkpoint_path{};
    /// Rounds between periodic checkpoints; 0 = only on shutdown.
    Step checkpoint_interval = 0;
    /// Write attempts per checkpoint. A failed write (ENOSPC, a flaky
    /// mount) is retried with capped exponential backoff; when every
    /// attempt fails the failure is counted and logged and the service
    /// keeps rounds flowing — a missed checkpoint widens the recovery
    /// window, it does not stop the run.
    int checkpoint_write_retries = 3;
    std::uint64_t checkpoint_retry_backoff_ms = 10;   ///< base, doubles
    std::uint64_t checkpoint_retry_backoff_cap_ms = 1000;
    /// Restore from checkpoint_path when the file exists at startup.
    bool restore_on_start = true;
    /// Rounds between metrics dumps to `metrics_out` (and rewrites of
    /// `metrics_file`); 0 = on signal and shutdown only.
    Step metrics_interval = 0;
    std::ostream* metrics_out = nullptr;  ///< nullptr = no metrics sink
    /// Prometheus text exposition: the whole registry is rendered to this
    /// file (atomic tmp+rename) every `metrics_interval` rounds, on
    /// SIGUSR1, and at shutdown. Non-empty arms the metrics registry for
    /// the process. Empty disables.
    std::string metrics_file{};
    /// Chrome trace-event JSON written at shutdown (Perfetto-loadable).
    /// Non-empty enables the phase tracer (so does the DLB_TRACE env
    /// var). Empty leaves the tracer as the environment configured it.
    std::string trace_file{};
    std::ostream* csv = nullptr;          ///< per-round CSV sink (no header)
    std::ostream* log = nullptr;          ///< service log lines; nullptr = quiet
    /// Test/CI hook: raise SIGTERM from inside the loop after this many
    /// rounds of the current run() call (< 0 = never). Exercises the
    /// real handler + graceful-shutdown path without timing races.
    Step stop_after = -1;
  };

  /// Binds the service to an engine (and optional tracker, both not
  /// owned). Performs restore-on-start immediately: after construction
  /// either restored() reports true and the engine continues the
  /// captured run, or the engine is untouched.
  BalancerService(Engine& engine, Options options,
                  SteadyStateTracker* tracker = nullptr);

  /// Installs SIGTERM/SIGINT (graceful stop) and SIGUSR1 (metrics dump)
  /// handlers. Process-wide; call once from the daemon's main().
  static void install_signal_handlers();

  /// What the handlers do — exposed so tests can request a stop or a
  /// metrics dump without involving the OS.
  static void request_stop() noexcept;
  static void request_metrics() noexcept;
  /// Clears both pending flags (between tests, or before a fresh run).
  static void clear_signal_requests() noexcept;
  static bool stop_requested() noexcept;

  /// Service loop: executes up to `rounds` rounds (< 0 = until stopped),
  /// polling the stop flag once per round. Returns the number of rounds
  /// executed this call. On exit (stop or round budget) writes a final
  /// checkpoint when a path is configured.
  Step run(Step rounds = -1);

  /// Writes a checkpoint now (atomic replace). No-op without a path.
  void checkpoint();

  /// Plain-text status block (the SIGUSR1 v1 format, preserved
  /// byte-for-byte; allocator counters now read through the registry).
  void dump_metrics(std::ostream& out) const;

  /// Renders the whole metrics registry as Prometheus text into
  /// Options::metrics_file (atomic tmp+rename). No-op without a path.
  void write_metrics_file() const;

  bool restored() const noexcept { return restored_; }
  Step checkpoints_written() const noexcept { return checkpoints_written_; }
  const std::string& csv_header() const;

 private:
  void emit_csv_row();

  Engine* engine_;
  Options options_;
  SteadyStateTracker* tracker_;
  bool restored_ = false;
  Step checkpoints_written_ = 0;
};

}  // namespace dlb
