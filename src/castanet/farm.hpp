// Multi-process session farm: shard independent VerificationSessions across
// worker processes.
//
// A regression campaign is a matrix of independent sessions — scenario ×
// seed × DUT binding × transport — and nothing couples two sessions, so the
// farm is embarrassingly parallel: a parent process forks N workers, each
// connected by an AF_UNIX socketpair, and dispatches session indices over a
// small framed protocol.  Workers run whole sessions (including board
// backends whose real-time hardware waits the farm overlaps) and ship back
// a compact wire-serialized result; the parent aggregates a JSON report.
//
// Failure semantics: a worker that dies mid-session (crash, kill -9) is
// detected by the parent's poll loop (EOF on its socket); its in-flight
// session is reported as a failed shard, the worker is reaped and NOT
// respawned, and the remaining sessions drain through the surviving
// workers.  Only when every worker is gone are leftover sessions failed.
//
// Determinism: a session's result depends only on its spec (everything is
// seeded), so run_serial and run_farm produce byte-identical per-session
// results — the farm changes wall-clock, never outcomes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/castanet/transport.hpp"
#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::farm {

/// One unit of farm work: a fully parameterized verification session.
struct SessionSpec {
  /// Unique within the experiment; used in reports and trace-file tags.
  std::string id;
  /// Scenario runner name (the CLI registers "accounting", "switch", ...).
  std::string scenario;
  /// Master seed for every stochastic model in the session.
  std::uint64_t seed = 1;
  /// Which MessageTransport the session uses.
  TransportKind transport = TransportKind::kInProcess;
  /// Full merged parameter object (scenario-specific knobs: horizon,
  /// binding, trace_out, ...).  Always a JSON object.
  json::Value params;
};

/// What one session run produced.  Identity-relevant fields (everything
/// except wall_seconds) are byte-identical between serial and farm runs.
struct SessionResult {
  std::string id;
  bool ok = false;
  std::string error;            ///< empty when ok
  std::uint64_t responses = 0;  ///< responses drained across backends
  std::uint64_t divergences = 0;
  /// FNV-1a digest over the canonical encoding of every comparator-visible
  /// response, in order — the byte-identity witness.
  std::uint64_t digest = 0;
  double wall_seconds = 0.0;    ///< informational; excluded from identity
  std::string detail;           ///< scenario-provided one-line summary
  /// Final telemetry Hub snapshot of the session, captured by the runner
  /// when telemetry is enabled and shipped back over the worker socketpair.
  /// Counters/histograms are deterministic in the spec; wall-clock timings
  /// inside the snapshot are informational, like wall_seconds.
  bool has_metrics = false;
  telemetry::MetricsSnapshot metrics;
};

/// Executes one session spec.  Runs inside a worker process (or inline for
/// run_serial); must be deterministic in the spec.  Exceptions become
/// failed results.
using SessionRunner = std::function<SessionResult(const SessionSpec&)>;

struct FarmParams {
  int jobs = 1;  ///< worker processes (clamped to the session count)
};

struct FarmReport {
  std::vector<SessionResult> results;  ///< in spec order
  int jobs = 0;                        ///< 0 = serial in-process run
  int workers_spawned = 0;
  int workers_failed = 0;  ///< workers that died before orderly exit
  double wall_seconds = 0.0;
  /// Cross-shard merge of every session's snapshot (merge_metric_row
  /// semantics: counters summed, timings/histograms merged exactly).  Empty
  /// unless at least one session shipped metrics.
  telemetry::MetricsSnapshot metrics;
  int sessions_with_metrics = 0;
  std::uint64_t heartbeats = 0;  ///< progress frames seen (farm runs only)

  bool all_ok() const;
  /// {"jobs", "wall_seconds", "workers_spawned", "workers_failed",
  ///  "sessions": [{"id", "ok", ...}], "metrics": {...} when present}
  json::Value to_json() const;
};

/// Runs every spec inline on the calling process, in order — the baseline
/// the farm's results are compared against.
FarmReport run_serial(const std::vector<SessionSpec>& specs,
                      const SessionRunner& runner);

/// Runs the specs across `params.jobs` forked worker processes.
FarmReport run_farm(const std::vector<SessionSpec>& specs,
                    const SessionRunner& runner, const FarmParams& params);

// ---------------------------------------------------------------------------
// Generic fork()-based work pool (the farm's engine).  Workers start through
// transport::fork_child; the parent dispatches item indices, each worker
// calls `run` and ships the returned bytes back.

struct PoolStats {
  int workers_spawned = 0;
  int workers_failed = 0;
};

/// Runs `run(item, worker)` for every item in [0, n) across `jobs` forked
/// workers.  `run` executes in the CHILD process; its returned bytes arrive
/// at the parent's `on_result(item, bytes)` in completion order.  A child
/// whose `run` throws reports the failure; the parent maps it (and any
/// worker death) to `on_failed(item, detail)`.  Fork safety: call from a
/// single-threaded parent, before spawning any threads.
PoolStats fork_map(
    std::size_t n, int jobs,
    const std::function<std::vector<std::uint8_t>(std::size_t item,
                                                  int worker)>& run,
    const std::function<void(std::size_t item,
                             const std::vector<std::uint8_t>& bytes)>&
        on_result,
    const std::function<void(std::size_t item, const std::string& detail)>&
        on_failed,
    const std::function<void(std::size_t item, int worker, double value)>&
        on_beat = {});

/// Ships a heartbeat/progress frame (current item + a scenario-defined
/// gauge, e.g. cycles completed) from inside a worker's `run` callback to
/// the parent: fork_map hands it to `on_beat`, and run_farm counts it in
/// FarmReport::heartbeats.  Returns false (no-op) when the caller is not a
/// farm worker, so instrumented runners work unchanged under run_serial.
bool worker_heartbeat(double value);

// ---------------------------------------------------------------------------
// Experiment files: tsload-style parametrization.
//
//   {
//     "name": "cross_run",
//     "scenario": "accounting",
//     "defaults": { "horizon_us": 400 },
//     "matrix": { "seed": [1, 2, 3, 4],
//                 "transport": ["in-process", "socket"] },
//     "sessions": [ { "scenario": "switch", "seed": 7 } ]
//   }
//
// The matrix expands to the cartesian product of its arrays, each point
// merged over `defaults` (point wins); explicit `sessions` entries append
// after the matrix, also merged over `defaults`.  Recognized keys become
// SessionSpec fields (scenario, seed, transport); the whole merged object
// lands in SessionSpec::params for the scenario runner.

std::vector<SessionSpec> load_experiment(const json::Value& doc);
std::vector<SessionSpec> load_experiment_file(const std::string& path);

/// Tags an output path with the session (and worker) that writes it, so
/// concurrent sessions never collide on one file: "t.jsonl" ->
/// "t.<session>.w3.jsonl" (worker < 0 omits the worker part).  Unsafe id
/// characters are replaced with '_'.
std::string tagged_path(const std::string& path, int worker,
                        const std::string& session_id);

}  // namespace castanet::cosim::farm
