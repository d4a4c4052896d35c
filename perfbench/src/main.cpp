// castanet_perfbench — the CASTANET benchmark executable.
//
//   castanet_perfbench --workload switch_rtl --seed 1 --seconds 10 --trace 0
//
// Runs one workload's sessions round after round for --seconds of host
// time (after one warm-up round), checks every session's outputs, and
// prints a human-readable report followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from the plain backends; their
// times are scaled to a nominal host speed measured around every session
// (calib.hpp), so that a shared host's minute-to-minute swings in speed do
// not pass for changes in the program.  --trace 1 alternates untraced rounds
// with traced rounds (span-wrapping backend subclasses) and reports the
// per-layer metrics, including the tracing overhead between the two.
//
// Workloads (closed loop: each session replays its whole recorded trace as
// fast as the host allows):
//   switch_rtl       E1 configuration B, ~20k cells
//   gcu_hybrid       E1 configuration C, ~100k cells
//   switch_coverify  RTL switch + reference backend, mixed traffic
//   farm_regression  accounting and switch sessions through farm::run_farm
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/sessions.hpp"
#include "src/castanet/farm.hpp"
#include "src/castanet/wire.hpp"

namespace perfbench {
namespace {

using castanet::cosim::TransportKind;
using castanet::cosim::farm::FarmReport;
using castanet::cosim::farm::SessionResult;
using castanet::cosim::farm::SessionSpec;
namespace json = castanet::json;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  ///< stimulus size factor (the self-test's smoke size)
  std::optional<std::uint64_t> expect_cycles;
  std::optional<std::uint64_t> expect_activations;
  std::optional<std::string> expect_digest;
  std::string spans_path;
};

// --- workloads -------------------------------------------------------------------

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `size` is the session's stimulus: "cells", or "duration_us" of
/// simulated traffic for the switch co-verification mix.
SessionSpec make_spec(std::string id, const char* scenario, std::uint64_t seed,
                      std::uint64_t size, TransportKind transport) {
  SessionSpec s;
  s.id = std::move(id);
  s.scenario = scenario;
  s.seed = seed;
  s.transport = transport;
  s.params = json::Value{json::Object{}};
  s.params.set(std::string(scenario) == kSwitchCoverify ? "duration_us" : "cells",
               static_cast<std::int64_t>(std::max<std::uint64_t>(size, 4)));
  return s;
}

std::uint64_t scaled(double cells, double scale) {
  return static_cast<std::uint64_t>(std::llround(cells * scale));
}

/// The workload's session specs; `farm` is set for farm_regression.
std::vector<SessionSpec> make_workload(const Options& o, bool& farm) {
  farm = false;
  const auto in_process = TransportKind::kInProcess;
  if (o.workload == kSwitchRtl)
    return {make_spec("switch_rtl", kSwitchRtl, o.seed, scaled(20000, o.scale), in_process)};
  if (o.workload == kGcuHybrid)
    return {make_spec("gcu_hybrid", kGcuHybrid, o.seed, scaled(100000, o.scale), in_process)};
  if (o.workload == kSwitchCoverify)
    return {make_spec("switch_coverify", kSwitchCoverify, o.seed,
                      scaled(20000, o.scale), in_process)};
  if (o.workload == "farm_regression") {
    // Accounting (RTL + reference + board) and switch (RTL + reference)
    // sessions alternate; every other pair uses the socket transport.
    farm = true;
    std::vector<SessionSpec> specs;
    for (std::uint64_t i = 0; i < 8; ++i) {
      const bool accounting = i % 2 == 0;
      const TransportKind transport =
          (i / 2) % 2 == 0 ? in_process : TransportKind::kSocket;
      specs.push_back(make_spec(
          "s" + std::to_string(i), accounting ? kAccounting : kSwitchCoverify,
          mix(o.seed, i), scaled(accounting ? 1500 : 3000, o.scale), transport));
    }
    return specs;
  }
  return {};
}

int farm_jobs() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 2);
}

// --- rounds ------------------------------------------------------------------------

/// One pass over the workload's specs.
struct Round {
  double wall_s = 0.0;
  double parent_cpu_s = 0.0;  ///< this thread's CPU time over the round
  int jobs = 0;  ///< 0 = farm::run_serial
  int workers_failed = 0;
  std::vector<SessionRecord> sessions;  ///< in spec order
  std::vector<double> session_wall_s;  ///< less the calibration passes
};

Round run_round(const std::vector<SessionSpec>& specs, bool farm, Tracer* tracer,
                std::uint32_t& session_id) {
  std::vector<SessionRecord> captured;
  const auto runner = [&](const SessionSpec& spec) {
    if (tracer != nullptr) tracer->set_session(session_id);
    ++session_id;
    SessionRecord rec = run_session(spec, tracer);
    SessionResult r;
    r.ok = rec.ok;
    r.error = rec.error;
    r.digest = rec.digest;
    r.divergences = rec.divergences;
    if (farm) {
      r.detail = rec.to_json().dump();
    } else {
      captured.push_back(std::move(rec));
    }
    return r;
  };
  Round round;
  const double cpu0 = thread_cpu_s();
  const FarmReport rep =
      farm ? castanet::cosim::farm::run_farm(specs, runner, {farm_jobs()})
           : castanet::cosim::farm::run_serial(specs, runner);
  round.parent_cpu_s = thread_cpu_s() - cpu0;
  round.wall_s = rep.wall_seconds;
  round.jobs = farm ? rep.jobs : 0;
  round.workers_failed = rep.workers_failed;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionResult& r = rep.results[i];
    if (!farm) {
      round.sessions.push_back(std::move(captured.at(i)));
    } else if (!r.detail.empty()) {
      round.sessions.push_back(SessionRecord::from_json(json::parse(r.detail)));
    } else {
      SessionRecord failed;  // the shard crashed or never ran
      failed.error = r.error.empty() ? "shard produced no result" : r.error;
      round.sessions.push_back(std::move(failed));
    }
    // The farm API times the whole runner; the calibration passes are the
    // benchmark's, not the session's (nor, shared out among the workers,
    // the round's).
    round.session_wall_s.push_back(r.wall_seconds - round.sessions.back().cal_wall_s);
    round.wall_s -= round.sessions.back().cal_wall_s / std::max(1, rep.jobs);
  }
  return round;
}

/// Simulated outputs of one round, which every round of a seed must repeat.
struct SimOutputs {
  std::uint64_t cycles = 0;
  std::uint64_t activations = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> session_digests;
  bool operator==(const SimOutputs&) const = default;
};

SimOutputs sim_outputs(const Round& r) {
  SimOutputs s;
  for (const SessionRecord& rec : r.sessions) {
    s.cycles += rec.cycles;
    s.activations += rec.activations;
    s.session_digests.push_back(rec.digest);
  }
  s.digest = castanet::cosim::wire::fnv1a(
      s.session_digests.data(), s.session_digests.size() * sizeof(std::uint64_t));
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- metrics -----------------------------------------------------------------------

/// End-to-end rates over a set of rounds, pooled: total work over total
/// time, each time first scaled to the nominal host (calib.hpp).  Serial
/// rounds are timed in their sessions' thread CPU time: run_until for clk/s,
/// run + comparator finish for cells/s, the whole session for sessions/s.
/// Farm rounds are timed by the CPU time on their critical path (see
/// farm_time_s): their wall time swings with every other process that wants
/// the host's CPUs, which a CPU time does not see.
struct Rates {
  double clk_per_s, cells_per_s, sessions_per_s;
};

/// Mean host speed over a round's sessions.
double host_speed(const Round& r) {
  double sum = 0;
  for (const SessionRecord& s : r.sessions) sum += s.host_speed();
  return r.sessions.empty() ? 1.0 : sum / static_cast<double>(r.sessions.size());
}

/// A farm round's time on the nominal host with a free CPU per worker: the
/// parent's CPU time (forking, dispatch, decoding results) plus the CPU time
/// of the busiest worker from its fork to the end of its last session, less
/// its calibration passes.
double farm_time_s(const Round& r) {
  struct Worker {
    double cpu_s = 0, cal_s = 0;
  };
  std::map<std::uint64_t, Worker> workers;
  for (const SessionRecord& s : r.sessions) {
    Worker& w = workers[s.worker];
    w.cpu_s = std::max(w.cpu_s, s.process_cpu_s);
    w.cal_s += s.cal_s;
  }
  double busiest = 0;
  for (const auto& [pid, w] : workers) busiest = std::max(busiest, w.cpu_s - w.cal_s);
  return (r.parent_cpu_s + busiest) * host_speed(r);
}

Rates rates(const std::vector<Round>& rounds) {
  double cycles = 0, cells = 0, sessions = 0, run_s = 0, loop_s = 0;
  double session_s = 0, farm_s = 0;
  bool serial = true;
  for (const Round& r : rounds) {
    serial = serial && r.jobs == 0;
    if (r.jobs > 0) farm_s += farm_time_s(r);
    sessions += static_cast<double>(r.sessions.size());
    for (const SessionRecord& s : r.sessions) {
      const double k = s.host_speed();
      cycles += static_cast<double>(s.cycles);
      cells += static_cast<double>(s.cells_sent);
      run_s += s.run_cpu_s * k;
      loop_s += (s.run_cpu_s + s.finish_cpu_s) * k;
      session_s += s.session_cpu_s * k;
    }
  }
  if (serial) return {cycles / run_s, cells / loop_s, sessions / session_s};
  return {cycles / farm_s, cells / farm_s, sessions / farm_s};
}

/// Trace generation plus elaboration of one round's sessions, in thread
/// CPU time scaled to the nominal host.
double setup_s(const Round& r) {
  double s = 0;
  for (const SessionRecord& rec : r.sessions)
    s += (rec.record_cpu_s + rec.build_cpu_s) * rec.host_speed();
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus(cpu_set_t& mask) {
  std::vector<int> cpus;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// This process's high-water plus the largest farm worker's.  The own
/// high-water comes from /proc (VmHWM): RUSAGE_SELF's ru_maxrss survives
/// exec and so would count whatever program launched the benchmark.
double peak_rss_mb() {
  long self_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kib) == 1) break;
    std::fclose(f);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);  // ru_maxrss is in KiB
  return static_cast<double>(self_kib + children.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for a layer that some workloads lack (it reads 0 there): the
  /// report prints it, the result line leaves it out.
  bool in_result = true;
};

void print_metric(const Metric& m, const char* note = "") {
  std::printf("  %-26s %18.6f %-9s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  json::Value o{json::Object{}};
  for (const Metric& m : ms) {
    if (!m.in_result) continue;
    json::Value v{json::Object{}};
    v.set("value", m.value);
    v.set("unit", m.unit);
    o.set(m.name, std::move(v));
  }
  return o.dump();
}

/// Per-layer metrics of the traced rounds: each is the mean per round of
/// the sum over the round's sessions.
std::vector<Metric> layer_metrics(const std::vector<Round>& traced,
                                  double untraced_clk, double traced_clk) {
  LayerTotals L;
  SessionRecord c;  // summed counters
  double max_lag_s = 0, wall = 0, session_sum = 0, efficiency = 0, overhead = 0;
  double workers_failed = 0, shards_failed = 0;
  for (const Round& r : traced) {
    const double jobs = std::max(1, r.jobs);
    double sum = 0;
    for (double w : r.session_wall_s) sum += w;
    wall += r.wall_s;
    session_sum += sum;
    efficiency += sum / (jobs * r.wall_s);
    overhead += r.wall_s - sum / jobs;
    workers_failed += r.workers_failed;
    for (const SessionRecord& s : r.sessions) {
      L.add(s.layers);
      if (!s.ok) shards_failed += 1;
      max_lag_s = std::max(max_lag_s, s.max_lag_s);
#define ADD(f) c.f += s.f;
      ADD(net_events) ADD(pushes) ADD(windows) ADD(lookahead_stalls)
      ADD(causality_errors) ADD(activations) ADD(transactions)
      ADD(value_changes) ADD(delta_cycles) ADD(time_points) ADD(gated_skips)
      ADD(stim_calls) ADD(resp_calls) ADD(ref_applied) ADD(compared)
      ADD(matched) ADD(board_test_cycles)
#undef ADD
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  const auto self = [&](Layer l) { return L.self_s[l] / n; };
  const auto count = [&](std::uint64_t v) { return static_cast<double>(v) / n; };
  double session_wall = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) session_wall += L.self_s[i] / n;
  const double events = count(c.net_events);
  const double activations = count(c.activations);
  const double transactions = count(c.transactions);
  return {
      {"traffic.record_s", self(kTrafficRecord), "s"},
      {"elab.build_s", self(kElabBuild), "s"},
      {"netsim.events", events, "count"},
      {"netsim.self_s", self(kSessionRun), "s"},
      {"netsim.ns_per_event", self(kSessionRun) / events * 1e9, "ns"},
      {"sync.push_s", self(kSyncPush), "s"},
      {"sync.pushes", count(c.pushes), "count"},
      {"sync.windows", count(c.windows), "count"},
      {"sync.lookahead_stalls", count(c.lookahead_stalls), "count"},
      {"sync.max_lag_us", max_lag_s * 1e6, "sim_us"},
      {"sync.causality_errors", count(c.causality_errors), "count"},
      {"rtl.advance_s", self(kRtlAdvance), "s"},
      {"rtl.activations", activations, "count"},
      {"rtl.transactions", transactions, "count"},
      {"rtl.value_changes", count(c.value_changes), "count"},
      {"rtl.useful_write_ratio", count(c.value_changes) / transactions, "ratio"},
      {"rtl.delta_cycles", count(c.delta_cycles), "count"},
      {"rtl.time_points", count(c.time_points), "count"},
      {"rtl.gated_skips", count(c.gated_skips), "count"},
      {"rtl.ns_per_activation", self(kRtlAdvance) / activations * 1e9, "ns"},
      {"mapping.stim_calls", count(c.stim_calls), "count"},
      {"mapping.stim_s", self(kMappingStim), "s"},
      {"mapping.resp_calls", count(c.resp_calls), "count"},
      {"mapping.resp_s", self(kMappingResp), "s"},
      {"ref.advance_s", self(kRefAdvance), "s", false},
      {"ref.applied", count(c.ref_applied), "count"},
      {"session.drain_s", self(kSessionDrain), "s"},
      {"comparator.compared", count(c.compared), "count"},
      {"comparator.matched", count(c.matched), "count"},
      {"comparator.finish_s", self(kComparatorFinish), "s"},
      {"board.advance_s", self(kBoardAdvance), "s", false},
      {"board.test_cycles", count(c.board_test_cycles), "count"},
      {"farm.wall_s", wall / n, "s"},
      {"farm.session_s_sum", session_sum / n, "s"},
      {"farm.efficiency", efficiency / n, "ratio"},
      {"farm.overhead_s", overhead / n, "s"},
      {"farm.workers_failed", workers_failed / n, "count"},
      {"farm.shards_failed", shards_failed / n, "count"},
      {"trace.session_wall_s", session_wall, "s"},
      {"trace.residual_s", self(kSession), "s"},
      {"trace.overhead", untraced_clk / traced_clk - 1.0, "ratio"},
  };
}

// --- main --------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: castanet_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F] [--spans FILE]\n"
               "       [--expect-cycles N --expect-activations N "
               "--expect-digest HEX]\n"
               "workloads: switch_rtl gcu_hybrid switch_coverify "
               "farm_regression\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v);
    else if (k == "--trace") o.trace = std::string(v) == "1";
    else if (k == "--scale") o.scale = std::atof(v);
    else if (k == "--spans") o.spans_path = v;
    else if (k == "--expect-cycles") o.expect_cycles = std::strtoull(v, nullptr, 10);
    else if (k == "--expect-activations") o.expect_activations = std::strtoull(v, nullptr, 10);
    else if (k == "--expect-digest") o.expect_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 && o.scale > 0;
}

int bench_main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage();
  bool farm = false;
  const std::vector<SessionSpec> specs = make_workload(o, farm);
  if (specs.empty()) return usage();

#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("build: {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"optimized\": %s}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              optimized ? "true" : "false");
  if (!optimized) {
    std::fprintf(stderr, "castanet_perfbench: refusing to time a build "
                         "without optimization; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  std::fflush(stdout);  // farm workers are forked: flush before they copy it

  // --- rounds and the correctness gate -----------------------------------
  // Every round, warm-up and traced ones included, must pass its sessions'
  // checks and repeat the first round's simulated outputs exactly.
  std::uint32_t session_id = 0;
  std::size_t rounds_run = 0;
  std::optional<SimOutputs> first;
  std::vector<std::int64_t> lat;  // the first round's latency samples
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const auto gate = [&](Round& r) {
    ++rounds_run;
    const SimOutputs out = sim_outputs(r);
    if (!first) first = out;
    const bool repeats = out == *first;
    if (!repeats && problems.size() < 8)
      problems.push_back("simulated outputs differ between rounds of one seed");
    for (SessionRecord& s : r.sessions) {
      attempted += s.cells_sent;
      if (!s.ok || !repeats) failed += s.cells_sent;
      if (!s.ok && problems.size() < 8) problems.push_back(s.error);
      if (rounds_run == 1) lat.insert(lat.end(), s.latency_ps.begin(), s.latency_ps.end());
      s.latency_ps = {};  // later rounds' samples repeat the first's
    }
  };
  // Rounds run in steps: one round per mode (untraced, and traced with
  // --trace 1), back to back on the same CPU, so both modes sample the
  // host alike and the tracing overhead compares like with like.  A serial
  // step runs pinned to the next allowed CPU in turn: on a shared host the
  // CPUs differ in speed for seconds at a time, and rotating makes every
  // run sample all of them instead of whichever one the scheduler happened
  // to keep it on.  Farm rounds keep the full mask for their workers.
  cpu_set_t full_mask;
  const std::vector<int> cpus = allowed_cpus(full_mask);
  std::size_t steps_run = 0;
  double peak_mb = 0.0;
  const auto run_steps = [&](double budget, std::size_t min_steps,
                             const std::vector<Tracer*>& modes) {
    std::vector<std::vector<Round>> rounds(modes.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t step = 0;
         step < min_steps ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count() < budget;
         ++step) {
      if (!farm && !cpus.empty()) pin_to(cpus[steps_run % cpus.size()]);
      ++steps_run;
      for (std::size_t m = 0; m < modes.size(); ++m) {
        rounds[m].push_back(run_round(specs, farm, modes[m], session_id));
        gate(rounds[m].back());
      }
      // The memory high-water is read once the warm-up and the first
      // measured step have run: later rounds repeat the same work, and a
      // fixed reading point keeps heap growth over however many rounds fit
      // the budget out of it.
      if (steps_run == 2) peak_mb = peak_rss_mb();
    }
    return rounds;
  };

  // One warm-up round (allocator, page cache, lazily built tables), then
  // the measured rounds.  The calibrator is built first, outside any round.
  calibrator();
  run_steps(0.0, 1, {nullptr});
  Tracer tracer;
  std::vector<Tracer*> modes{nullptr};
  if (o.trace) modes.push_back(&tracer);
  std::vector<std::vector<Round>> phase = run_steps(o.seconds, 3, modes);
  if (!cpus.empty()) sched_setaffinity(0, sizeof full_mask, &full_mask);
  const std::vector<Round> measured = std::move(phase[0]);
  const std::vector<Round> traced = o.trace ? std::move(phase[1]) : std::vector<Round>{};
  const auto expect = [&](const char* what, bool ok) {
    if (ok) return;
    problems.push_back(std::string("expected ") + what + " differs");
    failed = attempted;
  };
  if (o.expect_cycles) expect("cycles", first->cycles == *o.expect_cycles);
  if (o.expect_activations)
    expect("activations", first->activations == *o.expect_activations);
  if (o.expect_digest) expect("digest", hex(first->digest) == *o.expect_digest);
  const bool correct = failed == 0 && problems.empty();

  // --- end-to-end ---------------------------------------------------------
  std::vector<double> clk, cells, sessions, setup, speed, wall;
  for (const Round& r : measured) {
    const Rates x = rates({r});
    speed.push_back(host_speed(r));
    wall.push_back(r.wall_s);
    clk.push_back(x.clk_per_s);
    cells.push_back(x.cells_per_s);
    sessions.push_back(x.sessions_per_s);
    setup.push_back(setup_s(r));
  }
  const Rates pooled = rates(measured);
  std::sort(lat.begin(), lat.end());
  const auto pct_us = [&](double q) {
    if (lat.empty()) return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(lat.size())));
    return static_cast<double>(lat[std::max<std::size_t>(rank, 1) - 1]) * 1e-6;
  };
  const double fail_ratio =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("workload %s seed %llu: %zu session(s) per round, %zu measured "
              "round(s)%s, %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              specs.size(), measured.size(),
              o.trace ? (", " + std::to_string(traced.size()) + " traced").c_str() : "",
              farm ? ("farm::run_farm -j" + std::to_string(farm_jobs())).c_str()
                   : "farm::run_serial");
  std::printf("sim: {\"cycles\": %llu, \"activations\": %llu, \"digest\": "
              "\"%s\", \"cells\": %llu}\n",
              static_cast<unsigned long long>(first->cycles),
              static_cast<unsigned long long>(first->activations),
              hex(first->digest).c_str(),
              static_cast<unsigned long long>(attempted / rounds_run));
  {
    json::Value per_round{json::Object{}};
    for (const auto& [name, v] :
         {std::pair{"clk_per_s", &clk}, {"cells_per_s", &cells},
          {"sessions_per_s", &sessions}, {"setup_s", &setup},
          {"host_speed", &speed}, {"wall_s", &wall}}) {
      per_round.set(name, json::Array(v->begin(), v->end()));
    }
    std::printf("rounds: %s\n", per_round.dump().c_str());
  }
  std::printf("end-to-end (times scaled to the nominal host; rates pooled "
              "over the measured rounds, setup their median):\n");
  const std::vector<Metric> e2e = {
      {"clk_per_s", pooled.clk_per_s, "clk/s"},
      {"cells_per_s", pooled.cells_per_s, "cells/s"},
      {"sessions_per_s", pooled.sessions_per_s, "sessions/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_mb, "MiB"},
  };
  for (const Metric& m : e2e) print_metric(m);
  const std::string samples = "  (" + std::to_string(lat.size()) + " cells)";
  print_metric({"cell_latency_p50_us", pct_us(0.50), "sim_us"}, samples.c_str());
  print_metric({"cell_latency_p99_us", pct_us(0.99), "sim_us"}, samples.c_str());
  print_metric({"fail_ratio", fail_ratio, "share"});
  for (const std::string& p : problems) std::printf("  FAIL: %s\n", p.c_str());

  std::vector<Metric> layers;
  if (o.trace) {
    layers = layer_metrics(traced, pooled.clk_per_s, rates(traced).clk_per_s);
    std::printf("per layer (traced rounds, per round):\n");
    for (const Metric& m : layers) print_metric(m);
    const auto value = [&](const char* name) {
      for (const Metric& m : layers)
        if (m.name == name) return m.value;
      return 0.0;
    };
    // The spans tile each session, so their self times add up to the wall
    // time the farm API measured around the same sessions.
    std::printf("  layers + residual = %.6f s of %.6f s session wall (%.4f%%)\n",
                value("trace.session_wall_s"), value("farm.session_s_sum"),
                100.0 * value("trace.session_wall_s") / value("farm.session_s_sum"));
    if (!o.spans_path.empty()) {
      if (!tracer.write(o.spans_path)) {
        std::fprintf(stderr, "castanet_perfbench: cannot write %s\n",
                     o.spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu kept (%llu beyond the cap) in %s\n",
                  tracer.recorded(),
                  static_cast<unsigned long long>(tracer.dropped()),
                  o.spans_path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(o.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "castanet_perfbench: %s\n", e.what());
    return 1;
  }
}
