#include "src/castanet/farm.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"

namespace castanet::cosim::farm {

namespace {

// Pool protocol opcodes (first byte of every frame).
constexpr std::uint8_t kJob = 1;   // parent -> worker: u32 item index
constexpr std::uint8_t kExit = 2;  // parent -> worker: done, exit cleanly
constexpr std::uint8_t kOk = 3;    // worker -> parent: u32 item, result bytes
constexpr std::uint8_t kFail = 4;  // worker -> parent: u32 item, str detail
constexpr std::uint8_t kBeat = 5;  // worker -> parent: u32 item, f64 progress

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

// Worker-side heartbeat plumbing: worker_loop points these at its pipe and
// in-flight item for the duration of each run() call, so instrumented
// runners can ship progress without threading a handle through every layer.
// Single-threaded by construction (fork_map requires a single-threaded
// parent; the worker loop never spawns threads).
transport::FramePipe* g_beat_pipe = nullptr;
std::uint32_t g_beat_item = 0;

struct WorkerProc {
  pid_t pid = -1;
  std::unique_ptr<transport::FramePipe> pipe;
  std::size_t item = kNoItem;  ///< in-flight item, kNoItem when idle
  bool alive = false;
};

/// Child-side service loop: execute jobs until kExit (or a vanished
/// parent).  Returns the worker's exit status; fork_child ends the process
/// with it, so the child never falls back into the parent's code path.
int worker_loop(
    transport::FramePipe& pipe, int worker,
    const std::function<std::vector<std::uint8_t>(std::size_t, int)>& run) {
  std::vector<std::uint8_t> frame;
  for (;;) {
    if (pipe.recv_frame(frame, -1) != transport::RecvStatus::kFrame) {
      return 1;  // parent vanished
    }
    wire::Reader r(frame);
    const std::uint8_t op = r.u8();
    if (op == kExit) return 0;
    if (op != kJob) return 2;
    const std::uint32_t item = r.u32();
    wire::Writer w;
    try {
      g_beat_pipe = &pipe;
      g_beat_item = item;
      const std::vector<std::uint8_t> bytes =
          run(static_cast<std::size_t>(item), worker);
      g_beat_pipe = nullptr;
      w.u8(kOk);
      w.u32(item);
      w.bytes(bytes.data(), bytes.size());
    } catch (const std::exception& e) {
      g_beat_pipe = nullptr;
      w = wire::Writer();
      w.u8(kFail);
      w.u32(item);
      w.str(e.what());
    } catch (...) {
      g_beat_pipe = nullptr;
      w = wire::Writer();
      w.u8(kFail);
      w.u32(item);
      w.str("unknown exception");
    }
    if (!pipe.send_frame(w.data())) return 1;
  }
}

}  // namespace

bool worker_heartbeat(double value) {
  if (g_beat_pipe == nullptr) return false;
  wire::Writer w;
  w.u8(kBeat);
  w.u32(g_beat_item);
  w.f64(value);
  return g_beat_pipe->send_frame(w.data());
}

PoolStats fork_map(
    std::size_t n, int jobs,
    const std::function<std::vector<std::uint8_t>(std::size_t, int)>& run,
    const std::function<void(std::size_t, const std::vector<std::uint8_t>&)>&
        on_result,
    const std::function<void(std::size_t, const std::string&)>& on_failed,
    const std::function<void(std::size_t, int, double)>& on_beat) {
  PoolStats stats;
  if (n == 0) return stats;
  const int workers = static_cast<int>(
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   n, static_cast<std::size_t>(
                                          std::max(1, jobs)))));
  std::vector<WorkerProc> procs(static_cast<std::size_t>(workers));

  for (int w = 0; w < workers; ++w) {
    transport::Child child;
    try {
      child = transport::fork_child([&](transport::FramePipe& pipe) {
        // Raw-close the siblings' parent-side ends this child inherited.
        // Plain close, never shutdown(): those sockets stay live between
        // the parent and the siblings.
        for (const WorkerProc& sibling : procs) {
          if (sibling.pipe) ::close(sibling.pipe->native_handle());
        }
        return worker_loop(pipe, w, run);
      });
    } catch (const IoError&) {
      break;  // run with the workers we have
    }
    WorkerProc& p = procs[static_cast<std::size_t>(w)];
    p.pid = child.pid;
    p.pipe = std::move(child.pipe);
    p.alive = true;
    ++stats.workers_spawned;
  }
  if (stats.workers_spawned == 0) {
    throw IoError("farm: could not fork any worker");
  }

  std::size_t next = 0;
  std::size_t done = 0;

  const auto retire = [&](WorkerProc& p) {
    // No more work for this worker: ask it to exit and stop polling it.
    wire::Writer w;
    w.u8(kExit);
    p.pipe->send_frame(w.data());
    p.alive = false;
  };
  const auto assign = [&](WorkerProc& p) {
    if (next >= n) {
      retire(p);
      return;
    }
    wire::Writer w;
    w.u8(kJob);
    w.u32(static_cast<std::uint32_t>(next));
    if (p.pipe->send_frame(w.data())) {
      p.item = next++;
    }
    // A failed send means the worker died; the poll loop will see the EOF
    // and handle the (unassigned) state.
  };
  const auto worker_died = [&](WorkerProc& p) {
    p.alive = false;
    ++stats.workers_failed;
    transport::wait_child(p.pid);
    p.pid = -1;
    if (p.item != kNoItem) {
      on_failed(p.item, "worker process died mid-session");
      p.item = kNoItem;
      ++done;
    }
  };

  for (WorkerProc& p : procs) {
    if (p.alive) assign(p);
  }

  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> pidx;
  std::vector<std::uint8_t> frame;
  while (done < n) {
    pfds.clear();
    pidx.clear();
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (!procs[i].alive) continue;
      pfds.push_back({procs[i].pipe->native_handle(), POLLIN, 0});
      pidx.push_back(i);
    }
    if (pfds.empty()) {
      // Every worker is gone; fail whatever never got dispatched.
      for (; next < n; ++next, ++done) {
        on_failed(next, "no surviving farm workers");
      }
      break;
    }
    const int pr = ::poll(pfds.data(), pfds.size(), 1000);
    if (pr < 0 && errno != EINTR) {
      throw IoError(std::string("farm: poll failed: ") + std::strerror(errno));
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      WorkerProc& p = procs[pidx[k]];
      // Drain EVERY buffered frame, not just one: a single POLLIN wakeup can
      // carry several frames (heartbeats followed by the result), and
      // whatever the pipe's reassembly buffer holds beyond the first frame
      // is invisible to the top-level poll().
      while (p.alive) {
        const transport::RecvStatus st = p.pipe->recv_frame(frame, 0);
        if (st == transport::RecvStatus::kTimeout) break;  // drained
        if (st == transport::RecvStatus::kClosed) {
          worker_died(p);
          break;
        }
        wire::Reader r(frame);
        const std::uint8_t op = r.u8();
        const std::size_t item = r.u32();
        if (op == kBeat) {
          // Progress frame: liveness, not completion — the item stays in
          // flight and the worker keeps running.
          const double value = r.f64();
          if (on_beat) on_beat(item, static_cast<int>(pidx[k]), value);
          continue;
        }
        if (op == kOk) {
          std::vector<std::uint8_t> bytes(r.remaining());
          r.bytes(bytes.data(), bytes.size());
          on_result(item, bytes);
        } else if (op == kFail) {
          on_failed(item, r.str());
        } else {
          worker_died(p);
          break;
        }
        ++done;
        p.item = kNoItem;
        assign(p);  // may retire the worker (alive = false ends the drain)
      }
    }
  }

  for (WorkerProc& p : procs) {
    if (p.alive) retire(p);
  }
  for (WorkerProc& p : procs) {
    if (p.pid > 0) transport::wait_child(p.pid);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Session farm on top of fork_map.

namespace {

std::vector<std::uint8_t> encode_result(const SessionResult& r) {
  wire::Writer w;
  w.str(r.id);
  w.u8(r.ok ? 1 : 0);
  w.str(r.error);
  w.u64(r.responses);
  w.u64(r.divergences);
  w.u64(r.digest);
  w.u64(static_cast<std::uint64_t>(r.wall_seconds * 1e9));
  w.str(r.detail);
  w.u8(r.has_metrics ? 1 : 0);
  if (r.has_metrics) w.str(r.metrics.to_json());
  return w.take();
}

SessionResult decode_result(const std::vector<std::uint8_t>& bytes) {
  wire::Reader r(bytes);
  SessionResult out;
  out.id = r.str();
  out.ok = r.u8() != 0;
  out.error = r.str();
  out.responses = r.u64();
  out.divergences = r.u64();
  out.digest = r.u64();
  out.wall_seconds = static_cast<double>(r.u64()) * 1e-9;
  out.detail = r.str();
  out.has_metrics = r.u8() != 0;
  if (out.has_metrics) {
    out.metrics = telemetry::MetricsSnapshot::from_json(json::parse(r.str()));
  }
  return out;
}

/// Rewrites the spec's per-session output paths (trace_out, metrics_out) so
/// concurrent sessions never share a file.
SessionSpec retag_traces(const SessionSpec& spec, int worker) {
  SessionSpec out = spec;
  for (const char* key : {"trace_out", "metrics_out"}) {
    if (const json::Value* t = out.params.find(key);
        t != nullptr && t->is_string()) {
      out.params.set(key, tagged_path(t->as_string(), worker, out.id));
    }
  }
  return out;
}

SessionResult run_one(const SessionSpec& spec, const SessionRunner& runner) {
  const auto t0 = std::chrono::steady_clock::now();
  SessionResult r;
  try {
    r = runner(spec);
    if (!r.error.empty()) r.ok = false;
  } catch (const std::exception& e) {
    r = SessionResult{};
    r.ok = false;
    r.error = e.what();
  }
  r.id = spec.id;
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace

bool FarmReport::all_ok() const {
  for (const SessionResult& r : results) {
    if (!r.ok) return false;
  }
  return !results.empty();
}

json::Value FarmReport::to_json() const {
  json::Value v{json::Object{}};
  v.set("jobs", static_cast<std::int64_t>(jobs));
  v.set("workers_spawned", static_cast<std::int64_t>(workers_spawned));
  v.set("workers_failed", static_cast<std::int64_t>(workers_failed));
  v.set("wall_seconds", wall_seconds);
  v.set("all_ok", all_ok());
  json::Value sessions{json::Array{}};
  for (const SessionResult& r : results) {
    json::Value s{json::Object{}};
    s.set("id", r.id);
    s.set("ok", r.ok);
    if (!r.error.empty()) s.set("error", r.error);
    s.set("responses", static_cast<std::int64_t>(r.responses));
    s.set("divergences", static_cast<std::int64_t>(r.divergences));
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    s.set("digest", std::string(digest));
    s.set("wall_seconds", r.wall_seconds);
    if (!r.detail.empty()) s.set("detail", r.detail);
    sessions.push_back(std::move(s));
  }
  v.set("sessions", std::move(sessions));
  if (sessions_with_metrics > 0) {
    v.set("sessions_with_metrics",
          static_cast<std::int64_t>(sessions_with_metrics));
    v.set("heartbeats", static_cast<std::int64_t>(heartbeats));
    v.set("metrics", metrics.to_json_value());
  }
  return v;
}

namespace {

/// Folds each session's shipped snapshot into the report-level merge.
void merge_session_metrics(FarmReport& rep) {
  for (const SessionResult& r : rep.results) {
    if (!r.has_metrics) continue;
    rep.metrics.merge_from(r.metrics);
    ++rep.sessions_with_metrics;
  }
}

}  // namespace

FarmReport run_serial(const std::vector<SessionSpec>& specs,
                      const SessionRunner& runner) {
  FarmReport rep;
  rep.jobs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  rep.results.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    rep.results.push_back(run_one(retag_traces(spec, -1), runner));
  }
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  merge_session_metrics(rep);
  return rep;
}

FarmReport run_farm(const std::vector<SessionSpec>& specs,
                    const SessionRunner& runner, const FarmParams& params) {
  FarmReport rep;
  rep.jobs = std::max(1, params.jobs);
  rep.results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rep.results[i].id = specs[i].id;  // placeholder until a result lands
    rep.results[i].error = "never dispatched";
  }
  const auto t0 = std::chrono::steady_clock::now();
  const PoolStats stats = fork_map(
      specs.size(), rep.jobs,
      [&](std::size_t item, int worker) {
        return encode_result(
            run_one(retag_traces(specs[item], worker), runner));
      },
      [&](std::size_t item, const std::vector<std::uint8_t>& bytes) {
        rep.results[item] = decode_result(bytes);
      },
      [&](std::size_t item, const std::string& detail) {
        rep.results[item] = SessionResult{};
        rep.results[item].id = specs[item].id;
        rep.results[item].ok = false;
        rep.results[item].error = detail;
      },
      [&](std::size_t /*item*/, int /*worker*/, double /*value*/) {
        ++rep.heartbeats;
      });
  rep.workers_spawned = stats.workers_spawned;
  rep.workers_failed = stats.workers_failed;
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  merge_session_metrics(rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Experiment files.

namespace {

/// `over` wins; both must be objects (or null for absent).
json::Value merge_objects(const json::Value* base, const json::Value& over) {
  json::Value out{json::Object{}};
  if (base != nullptr && base->is_object()) {
    for (const auto& [k, v] : base->as_object()) out.set(k, v);
  }
  if (over.is_object()) {
    for (const auto& [k, v] : over.as_object()) out.set(k, v);
  }
  return out;
}

std::string default_id(const std::string& scenario, std::size_t index,
                       const json::Value& merged) {
  std::string id = scenario + "-" + std::to_string(index);
  if (const json::Value* seed = merged.find("seed");
      seed != nullptr && seed->is_number()) {
    id += "-s" + std::to_string(seed->as_int());
  }
  if (merged.string_or("transport", "in-process") == "socket") id += "-sock";
  return id;
}

SessionSpec make_spec(const json::Value& doc, json::Value merged,
                      std::size_t index) {
  SessionSpec spec;
  spec.scenario = merged.string_or("scenario", doc.string_or("scenario", ""));
  if (spec.scenario.empty()) {
    throw ConfigError("experiment: session " + std::to_string(index) +
                      " has no scenario (set it per-session or at top level)");
  }
  merged.set("scenario", spec.scenario);
  spec.seed = static_cast<std::uint64_t>(merged.int_or("seed", 1));
  spec.transport = transport_kind_from_string(
      merged.string_or("transport", "in-process"));
  spec.id = merged.string_or("id", default_id(spec.scenario, index, merged));
  spec.params = std::move(merged);
  return spec;
}

}  // namespace

std::vector<SessionSpec> load_experiment(const json::Value& doc) {
  if (!doc.is_object()) throw ConfigError("experiment: document not an object");
  const json::Value* defaults = doc.find("defaults");
  if (defaults != nullptr && !defaults->is_object()) {
    throw ConfigError("experiment: 'defaults' must be an object");
  }

  // Matrix expansion: cartesian product over the arrays, insertion order.
  std::vector<json::Value> points;
  if (const json::Value* matrix = doc.find("matrix")) {
    if (!matrix->is_object()) {
      throw ConfigError("experiment: 'matrix' must be an object of arrays");
    }
    points.emplace_back(json::Object{});
    for (const auto& [axis, values] : matrix->as_object()) {
      if (!values.is_array() || values.as_array().empty()) {
        throw ConfigError("experiment: matrix axis '" + axis +
                          "' must be a non-empty array");
      }
      std::vector<json::Value> expanded;
      expanded.reserve(points.size() * values.as_array().size());
      for (const json::Value& p : points) {
        for (const json::Value& v : values.as_array()) {
          json::Value q = p;
          q.set(axis, v);
          expanded.push_back(std::move(q));
        }
      }
      points = std::move(expanded);
    }
  }

  std::vector<SessionSpec> specs;
  for (const json::Value& point : points) {
    specs.push_back(
        make_spec(doc, merge_objects(defaults, point), specs.size()));
  }
  if (const json::Value* sessions = doc.find("sessions")) {
    if (!sessions->is_array()) {
      throw ConfigError("experiment: 'sessions' must be an array");
    }
    for (const json::Value& s : sessions->as_array()) {
      specs.push_back(make_spec(doc, merge_objects(defaults, s), specs.size()));
    }
  }
  if (specs.empty() && defaults != nullptr) {
    specs.push_back(make_spec(doc, merge_objects(defaults, json::Value{}),
                              0));
  }
  if (specs.empty()) {
    throw ConfigError("experiment: no sessions (need 'matrix' or 'sessions')");
  }
  return specs;
}

std::vector<SessionSpec> load_experiment_file(const std::string& path) {
  return load_experiment(json::parse_file(path));
}

std::string tagged_path(const std::string& path, int worker,
                        const std::string& session_id) {
  std::string safe;
  safe.reserve(session_id.size());
  for (char c : session_id) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '-' || c == '_';
    safe += ok ? c : '_';
  }
  std::string tag = "." + safe;
  if (worker >= 0) tag += ".w" + std::to_string(worker);
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

}  // namespace castanet::cosim::farm
