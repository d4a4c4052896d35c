// castanet_farm — multi-process verification session farm.
//
// Loads a tsload-style experiment file (scenario × seed × transport matrix),
// shards the resulting sessions across forked worker processes, and writes
// an aggregated JSON report.  Every session is deterministic in its spec, so
// `--serial` produces byte-identical per-session results to any `-j N` run —
// which is exactly what `--check` asserts.
//
//   castanet_farm --experiment experiments/cross_run.json -j8
//   castanet_farm --experiment experiments/cross_run.json -j4 --check
//   castanet_farm --experiment experiments/farm_smoke.json --serial --out r.json
//
// Scenarios:
//   accounting  three-backend accounting rig (RTL + reference + board)
//   switch      4-port ATM switch rig (RTL + reference)
//   board       accounting rig with the board replaying stimulus in real
//               time (board_us_per_test_cycle) — the farm overlaps those
//               hardware waits, which is where the wall-clock speedup lives
//
// Session parameters (experiment defaults / matrix / sessions entries):
//   seed                   varies the stimulus (CLP tagging pattern)
//   transport              "in-process" | "socket"
//   cells                  stimulus length (default 40)
//   board_us_per_test_cycle  real-time wait per board test cycle (default 0;
//                            "board" scenario defaults to 200)
//   trace_out              telemetry trace path; automatically tagged with
//                          the session id + worker so runs never collide
//   metrics_out            per-session metrics JSON path, tagged like
//                          trace_out; implies telemetry capture.  A session
//                          whose trace or metrics file cannot be written
//                          fails, so the run exits 1
//   metrics                bool: capture a telemetry snapshot per session
//                          and ship it to the parent for the merged report
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "examples/rigs/accounting_rig.hpp"
#include "examples/rigs/switch_rig.hpp"
#include "src/castanet/farm.hpp"
#include "src/castanet/report.hpp"
#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"
#include "src/traffic/trace.hpp"

namespace castanet {
namespace {

using cosim::farm::SessionResult;
using cosim::farm::SessionSpec;

/// Seed-dependent stimulus: every (2 + seed % 5)-th cell gets its CLP bit
/// tagged, so different seeds produce different charges and digests while
/// staying bit-reproducible.
traffic::CellTrace mutate_trace(const traffic::CellTrace& base,
                                std::uint64_t seed) {
  traffic::CellTrace out;
  const std::size_t period = 2 + static_cast<std::size_t>(seed % 5);
  std::size_t i = 0;
  for (traffic::CellArrival a : base.arrivals()) {
    if (i++ % period == 0) a.cell.header.clp = true;
    out.append(a);
  }
  return out;
}

cosim::VerificationSession::Params session_params(const SessionSpec& spec) {
  cosim::VerificationSession::Params sp;
  sp.transport = spec.transport;
  return sp;
}

/// Arms the telemetry Hub for one session when the spec asks for traces
/// (`trace_out`), per-session metrics files (`metrics_out`) or in-memory
/// snapshot capture (`metrics: true`).  The farm already tagged both output
/// paths with session id + worker, so concurrent shards never collide.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(const SessionSpec& spec) {
    metrics_out_ = spec.params.string_or("metrics_out", "");
    trace_out_ = spec.params.string_or("trace_out", "");
    active_ = spec.params.bool_or("metrics", false) || !metrics_out_.empty() ||
              !trace_out_.empty();
    if (!active_) return;
    telemetry::Hub::instance().enable();
    // A file that does not open is reported by capture(): with no file
    // attached, stop_trace_stream() returns false.
    if (!trace_out_.empty()) {
      telemetry::Hub::instance().stream_trace_to(trace_out_);
    }
  }

  /// Captures the final Hub snapshot into the result (shipped to the farm
  /// parent over the socketpair), finishes the trace file and writes the
  /// metrics_out file.  A file that cannot be opened or fully written fails
  /// the session.  Call once, after the scenario finished and published its
  /// stats.
  void capture(SessionResult& r) {
    if (!active_) return;
    telemetry::Hub& hub = telemetry::Hub::instance();
    r.metrics = hub.snapshot();
    r.has_metrics = true;
    if (!trace_out_.empty() && !hub.stop_trace_stream()) {
      fail(r, "cannot write trace to " + trace_out_);
    }
    if (!metrics_out_.empty()) {
      std::ofstream f(metrics_out_);
      f << r.metrics.to_json() << "\n";
      f.close();
      if (!f) fail(r, "cannot write metrics to " + metrics_out_);
    }
  }

  ~ScopedTelemetry() {
    if (active_) {
      // Only a session that threw before capture() still has a stream open.
      telemetry::Hub::instance().stop_trace_stream();
      telemetry::Hub::instance().disable();
    }
  }

 private:
  static void fail(SessionResult& r, const std::string& why) {
    r.ok = false;
    r.error += (r.error.empty() ? "" : "; ") + why;
  }

  bool active_ = false;
  std::string metrics_out_;
  std::string trace_out_;
};

void digest_comparator(cosim::wire::Writer& w,
                       const cosim::SessionComparator& cmp) {
  w.u64(cmp.responses_compared());
  w.u64(cmp.responses_matched());
  w.u64(cmp.divergences().size());
  for (const cosim::Divergence& d : cmp.divergences()) {
    w.u64(d.backend);
    w.u64(d.stream);
    w.u64(d.index);
    w.i64(d.primary_time.ps());
    w.i64(d.backend_time.ps());
    w.str(d.detail);
  }
}

SessionResult run_accounting(const SessionSpec& spec) {
  ScopedTelemetry telemetry_guard(spec);
  rigs::AccountingRig::Params rp;
  rp.session = session_params(spec);
  rp.board_real_time_per_test_cycle = std::chrono::microseconds(
      spec.params.int_or("board_us_per_test_cycle",
                         spec.scenario == "board" ? 200 : 0));
  rigs::AccountingRig rig(rp);
  const std::size_t cells =
      static_cast<std::size_t>(spec.params.int_or("cells", 40));
  const traffic::CellTrace trace =
      mutate_trace(rigs::AccountingRig::record_trace(cells), spec.seed);
  rig.drive(trace);
  cosim::farm::worker_heartbeat(0.0);
  rig.run(trace.arrivals().back().time + SimTime::from_ms(1));

  const auto& cmp = rig.session->comparator();
  const auto stats = rig.session->stats();
  SessionResult r;
  r.ok = cmp.clean();
  r.responses = stats.responses;
  r.divergences = cmp.divergences().size();
  cosim::wire::Writer w;
  w.u64(rig.ref.count(0));
  w.u64(rig.ref.clp1_count(0));
  w.u64(rig.ref.charge(0));
  w.u64(rig.acct.count(0));
  w.u64(rig.acct.clp1_count(0));
  w.u64(rig.acct.charge(0));
  digest_comparator(w, cmp);
  r.digest = cosim::wire::fnv1a(w.data().data(), w.data().size());
  r.detail = "count0=" + std::to_string(rig.ref.count(0)) +
             " clp1_0=" + std::to_string(rig.ref.clp1_count(0)) +
             " charge0=" + std::to_string(rig.ref.charge(0));
  if (!r.ok) r.error = cmp.report();
  cosim::farm::worker_heartbeat(static_cast<double>(stats.responses));
  telemetry_guard.capture(r);
  return r;
}

SessionResult run_switch(const SessionSpec& spec) {
  ScopedTelemetry telemetry_guard(spec);
  rigs::SwitchRig::Params rp;
  rp.session = session_params(spec);
  rigs::SwitchRig rig(rp);
  const std::size_t cells =
      static_cast<std::size_t>(spec.params.int_or("cells", 16));
  std::vector<traffic::CellTrace> traces =
      rigs::SwitchRig::record_traces(cells);
  for (traffic::CellTrace& t : traces) t = mutate_trace(t, spec.seed);
  rig.drive(traces);
  cosim::farm::worker_heartbeat(0.0);
  rig.run(rigs::SwitchRig::horizon(traces) + SimTime::from_ms(2));

  const auto& cmp = rig.session.comparator();
  const auto stats = rig.session.stats();
  SessionResult r;
  r.ok = cmp.clean();
  r.responses = stats.responses;
  r.divergences = cmp.divergences().size();
  cosim::wire::Writer w;
  w.u64(stats.messages_to_hdl);
  w.u64(stats.responses);
  digest_comparator(w, cmp);
  r.digest = cosim::wire::fnv1a(w.data().data(), w.data().size());
  r.detail = "responses=" + std::to_string(stats.responses) +
             " matched=" + std::to_string(cmp.responses_matched());
  if (!r.ok) r.error = cmp.report();
  cosim::farm::worker_heartbeat(static_cast<double>(stats.responses));
  telemetry_guard.capture(r);
  return r;
}

SessionResult run_session(const SessionSpec& spec) {
  if (spec.scenario == "accounting" || spec.scenario == "board") {
    return run_accounting(spec);
  }
  if (spec.scenario == "switch") return run_switch(spec);
  throw ConfigError("castanet_farm: unknown scenario '" + spec.scenario +
                    "' (have: accounting, switch, board)");
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --experiment FILE [-j N] [--serial] [--check] [--out FILE]\n"
               "  --experiment FILE  tsload-style experiment json (required)\n"
               "  -j N               worker processes (default 1)\n"
               "  --serial           run inline in this process (baseline)\n"
               "  --check            run serial AND farmed, assert identical\n"
               "                     per-session results and merged counters\n"
               "  --out FILE         write the JSON report here (default "
               "stdout)\n"
               "  --metrics FILE     per-session metrics JSON (tagged with\n"
               "                     session id + worker); enables telemetry\n"
               "  --trace FILE       per-session Chrome trace (tagged too)\n"
               "  --report [FILE]    consolidated run report: table on\n"
               "                     stderr, JSON to FILE when given;\n"
               "                     enables telemetry\n";
  return 2;
}

bool results_identical(const std::vector<SessionResult>& a,
                       const std::vector<SessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].ok != b[i].ok ||
        a[i].error != b[i].error || a[i].responses != b[i].responses ||
        a[i].divergences != b[i].divergences ||
        a[i].digest != b[i].digest || a[i].detail != b[i].detail) {
      return false;
    }
  }
  return true;
}

/// Deterministic subset of the merged snapshot: counters and histograms are
/// driven purely by simulated time + stimulus, so a farmed merge must equal
/// the serial merge exactly.  Gauges and time averages are last-writer or
/// approximate under merge and are not compared.
bool merged_counters_identical(const telemetry::MetricsSnapshot& farm,
                               const telemetry::MetricsSnapshot& serial,
                               std::string& why) {
  using Kind = telemetry::MetricRow::Kind;
  for (const telemetry::MetricRow& s : serial.rows) {
    if (s.kind != Kind::kCounter && s.kind != Kind::kHistogram) continue;
    const telemetry::MetricRow* f = farm.find(s.name);
    if (f == nullptr || f->kind != s.kind) {
      why = "row \"" + s.name + "\" missing from the farmed merge";
      return false;
    }
    if (f->count != s.count) {
      why = "row \"" + s.name + "\": farm count " + std::to_string(f->count) +
            " != serial " + std::to_string(s.count);
      return false;
    }
    if (s.kind == Kind::kHistogram && !f->hist.identical(s.hist)) {
      why = "histogram \"" + s.name + "\" differs between farm and serial";
      return false;
    }
  }
  for (const telemetry::MetricRow& f : farm.rows) {
    if (f.kind != Kind::kCounter && f.kind != Kind::kHistogram) continue;
    if (serial.find(f.name) == nullptr) {
      why = "farmed merge has extra row \"" + f.name + "\"";
      return false;
    }
  }
  return true;
}

int farm_main(int argc, char** argv) {
  std::string experiment;
  std::string out_path;
  std::string metrics_path;
  std::string trace_path;
  std::string report_path;
  int jobs = 1;
  bool serial = false;
  bool check = false;
  bool want_report = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--experiment" && i + 1 < argc) {
      experiment = argv[++i];
    } else if (arg == "-j" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      jobs = std::atoi(arg.c_str() + 2);
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--report") {
      want_report = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') report_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (experiment.empty() || jobs < 1) return usage(argv[0]);

  std::vector<SessionSpec> specs =
      cosim::farm::load_experiment_file(experiment);
  // CLI telemetry flags apply to every session; the farm retags the output
  // paths per session + worker so shards never collide.
  for (SessionSpec& spec : specs) {
    if (!metrics_path.empty()) spec.params.set("metrics_out", metrics_path);
    if (!trace_path.empty()) spec.params.set("trace_out", trace_path);
    if (want_report || check) spec.params.set("metrics", true);
  }
  std::cerr << "castanet_farm: " << specs.size() << " sessions from "
            << experiment << "\n";

  cosim::farm::FarmReport report;
  if (serial && !check) {
    report = cosim::farm::run_serial(specs, run_session);
  } else {
    report = cosim::farm::run_farm(specs, run_session, {jobs});
  }
  if (check) {
    const cosim::farm::FarmReport baseline =
        cosim::farm::run_serial(specs, run_session);
    if (!results_identical(report.results, baseline.results)) {
      std::cerr << "castanet_farm: FARM/SERIAL MISMATCH\n"
                << "farm:   " << report.to_json().dump(2) << "\n"
                << "serial: " << baseline.to_json().dump(2) << "\n";
      return 1;
    }
    std::string why;
    if (!merged_counters_identical(report.metrics, baseline.metrics, why)) {
      std::cerr << "castanet_farm: FARM/SERIAL MERGED METRICS MISMATCH: "
                << why << "\n";
      return 1;
    }
    std::cerr << "castanet_farm: farmed results byte-identical to serial ("
              << report.results.size() << " sessions, "
              << report.metrics.rows.size() << " merged metric rows, farm "
              << report.wall_seconds << "s vs serial "
              << baseline.wall_seconds << "s)\n";
  }

  if (want_report) {
    cosim::report::RunReport run_report;
    for (const SessionResult& r : report.results) {
      if (!r.has_metrics) continue;
      run_report.shards.push_back(
          cosim::report::ShardMetrics{r.id, r.metrics});
    }
    run_report.merged = report.metrics;
    std::cerr << run_report.to_table();
    if (!report_path.empty()) {
      std::ofstream f(report_path);
      if (!f) {
        std::cerr << "castanet_farm: cannot write " << report_path << "\n";
        return 1;
      }
      f << run_report.to_json().dump(2) << "\n";
      std::cerr << "castanet_farm: run report written to " << report_path
                << "\n";
    }
  }

  const std::string json = report.to_json().dump(2);
  if (out_path.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "castanet_farm: cannot write " << out_path << "\n";
      return 1;
    }
    f << json << "\n";
    std::cerr << "castanet_farm: report written to " << out_path << "\n";
  }
  for (const SessionResult& r : report.results) {
    std::cerr << "  [" << (r.ok ? "PASS" : "FAIL") << "] " << r.id;
    if (!r.error.empty()) std::cerr << " — " << r.error;
    std::cerr << "\n";
  }
  return report.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace castanet

int main(int argc, char** argv) {
  try {
    return castanet::farm_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "castanet_farm: " << e.what() << "\n";
    return 1;
  }
}
