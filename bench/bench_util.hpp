// Shared helpers for the experiment benches: wall-clock timing and table
// printing.  Every bench_e* binary regenerates one element of the paper's
// evaluation; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::bench {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void rule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Machine-readable results alongside the human tables.  Every bench binary
/// accepts `--json <path>`; when present, the report writes one JSON object
/// per run through core/json:
///
///   {"bench": "e1_cosim_speed",
///    "rows": [{"config": "...", "metrics": {"wall_seconds": 1.5, ...}}]}
///
/// bench/run_all.sh composes the per-bench files into BENCH_PR<n>.json.
/// Without --json the report is inert, so benches stay runnable by hand.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string bench_name)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
    }
  }
  ~JsonReport() { write(); }

  bool active() const { return !path_.empty(); }

  /// Starts a result row; subsequent metric() calls attach to it.
  void begin_row(std::string config) {
    rows_.push_back(Row{std::move(config), json::Value{json::Object{}}});
  }
  void metric(const char* key, double v) { add(key, v); }
  void metric(const char* key, std::uint64_t v) {
    add(key, static_cast<std::int64_t>(v));
  }

  /// Idempotent; also called by the destructor.
  void write() {
    if (path_.empty() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path_.c_str());
      return;
    }
    json::Value rows{json::Array{}};
    for (const Row& r : rows_) {
      json::Value row{json::Object{}};
      row.set("config", r.config);
      row.set("metrics", r.metrics);
      rows.push_back(std::move(row));
    }
    json::Value doc{json::Object{}};
    doc.set("bench", bench_);
    doc.set("rows", std::move(rows));
    const std::string text = doc.dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    written_ = true;
  }

 private:
  struct Row {
    std::string config;
    json::Value metrics;  ///< object, keys in insertion order
  };

  void add(const char* key, json::Value v) {
    if (rows_.empty()) begin_row("default");
    rows_.back().metrics.set(key, std::move(v));
  }

  std::string bench_;
  std::string path_;
  std::vector<Row> rows_;
  bool written_ = false;
};

/// Opt-in telemetry for benches: `--trace <path>` enables the hub and
/// streams a Chrome trace to the file as the run goes, `--metrics <path>`
/// writes the flat metrics snapshot (JSON) at destruction.  Without either
/// flag the hub stays disabled, so the default bench numbers measure the
/// enabled()-check fast path only.
class TelemetryCli {
 public:
  TelemetryCli(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--trace") trace_path_ = argv[i + 1];
      if (std::string(argv[i]) == "--metrics") metrics_path_ = argv[i + 1];
    }
    if (active()) telemetry::Hub::instance().enable();
    // A file that cannot be opened is reported at destruction, when
    // stop_trace_stream() finds no file attached.
    if (!trace_path_.empty())
      telemetry::Hub::instance().stream_trace_to(trace_path_);
  }
  ~TelemetryCli() {
    if (!active()) return;
    auto& hub = telemetry::Hub::instance();
    if (!trace_path_.empty()) {
      if (hub.stop_trace_stream()) {
        std::printf(
            "chrome trace written: %s (%llu events)\n", trace_path_.c_str(),
            static_cast<unsigned long long>(hub.trace_events_streamed()));
      } else {
        std::fprintf(stderr, "TelemetryCli: cannot write %s\n",
                     trace_path_.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      if (std::FILE* f = std::fopen(metrics_path_.c_str(), "w")) {
        const std::string json = hub.snapshot().to_json();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "TelemetryCli: cannot write %s\n",
                     metrics_path_.c_str());
      }
    }
    hub.disable();
  }
  bool active() const {
    return !trace_path_.empty() || !metrics_path_.empty();
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace castanet::bench
