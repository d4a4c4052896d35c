// The benchmark's verification sessions.
//
// Every workload is a list of session specs run through castanet's farm API
// (farm::run_serial for the single-session workloads, farm::run_farm for
// farm_regression).  A session records its own traces from the spec's seed,
// elaborates its rig, runs VerificationSession::run_until, finishes the
// comparator and checks its outputs; the SessionRecord carries what the
// benchmark aggregates: host timings, simulated outputs, layer counters and,
// in the traced run, per-layer self times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/calib.hpp"
#include "perfbench/src/spans.hpp"
#include "src/castanet/farm.hpp"
#include "src/core/json.hpp"

namespace perfbench {

/// Session scenarios.  `switch_rtl`, `gcu_hybrid` and `switch_coverify`
/// are single-session workloads; farm_regression mixes `accounting` and
/// small `switch_coverify` sessions.
inline constexpr const char* kSwitchRtl = "switch_rtl";
inline constexpr const char* kGcuHybrid = "gcu_hybrid";
inline constexpr const char* kSwitchCoverify = "switch_coverify";
inline constexpr const char* kAccounting = "accounting";

struct SessionRecord {
  bool ok = false;
  std::string error;  ///< first failed check, empty when ok

  // Stimulus and outputs (simulated; identical on every run of a seed).
  std::uint64_t cells_sent = 0;
  std::uint64_t cells_delivered = 0;
  std::uint64_t cycles = 0;       ///< DUT clock rising edges
  std::uint64_t activations = 0;  ///< kernel process activations
  std::uint64_t digest = 0;       ///< FNV-1a over the checked responses
  std::vector<std::int64_t> latency_ps;  ///< per-cell ingress -> egress

  // Host timings, in thread CPU time.
  double record_cpu_s = 0.0;   ///< trace generation
  double build_cpu_s = 0.0;    ///< elaboration
  double run_cpu_s = 0.0;      ///< VerificationSession::run_until
  double finish_cpu_s = 0.0;   ///< SessionComparator::finish
  double session_cpu_s = 0.0;  ///< the whole session
  /// Thread CPU time of two calibration passes, one right before and one
  /// right after the session.
  double cal_s = 0.0;
  double cal_wall_s = 0.0;  ///< the same passes in wall time
  /// CPU time of the process that ran the session (a farm worker) from its
  /// start up to the end of the session.
  double process_cpu_s = 0.0;

  // Layer counters.
  std::uint64_t net_events = 0;
  std::uint64_t pushes = 0;
  std::uint64_t windows = 0;
  std::uint64_t lookahead_stalls = 0;
  std::uint64_t causality_errors = 0;
  double max_lag_s = 0.0;
  std::uint64_t transactions = 0;
  std::uint64_t value_changes = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t time_points = 0;
  std::uint64_t gated_skips = 0;
  std::uint64_t stim_calls = 0;
  std::uint64_t resp_calls = 0;
  std::uint64_t ref_applied = 0;
  std::uint64_t compared = 0;
  std::uint64_t matched = 0;
  std::uint64_t divergences = 0;
  std::uint64_t board_test_cycles = 0;

  std::uint64_t worker = 0;  ///< process id of the farm worker that ran it

  LayerTotals layers;  ///< traced run only

  /// The host's speed over the session relative to the nominal host
  /// (calib.hpp): a CPU time times this is the nominal host's time.
  double host_speed() const {
    return cal_s > 0 ? 2 * Calibrator::kNominalPassS / cal_s : 1.0;
  }
  castanet::json::Value to_json() const;
  static SessionRecord from_json(const castanet::json::Value& v);
};

/// Runs one session.  `tracer` null is the untraced run with the plain
/// backends; otherwise the traced backend subclasses open a span around
/// every layer call.  Failed checks are reported in the record, never
/// thrown.
SessionRecord run_session(const castanet::cosim::farm::SessionSpec& spec,
                          Tracer* tracer);

}  // namespace perfbench
