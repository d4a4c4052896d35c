// Telemetry: counters, published statistics, span timers and a Chrome
// event trace streamed to a file, shared by every layer of the
// co-verification stack (sync protocol, session, both simulation kernels).
//
// Design constraints, in order:
//   1. Compiled-in but CHEAP when no sink is attached: every instrumentation
//      site guards itself with telemetry::enabled() — one load of a plain
//      bool — and does nothing else while the hub is disabled.  Benches run
//      with the hub disabled and must not regress.
//   2. Single-threaded: every process records on its one thread, so counters
//      are plain fields and the trace buffer a plain vector.  A forked
//      process (farm worker, backend host) records into its own copy of the
//      hub; farm workers ship snapshots back to the parent, which merges
//      them.
//   3. Two exporters, both rendered through core/json: a Chrome trace_event
//      JSON file (one timeline row per backend, openable in chrome://tracing
//      or Perfetto) that keeps every recorded event, and a flat metrics
//      snapshot (JSON + human-readable table) that benches and examples emit
//      alongside their --json output.
//
// The Hub is the process's one metrics registry.  A snapshot row is one of
// three kinds: counter, time_average and histogram.  Components either
//   * bump a hub-owned Counter obtained by name (lives until reset()); or
//   * keep their own statistics (ConservativeSync's lag histogram and queue
//     depths, the kernel counters, the flow registry) and publish_* them
//     into the snapshot at a quiescent point (end of run_until, finish()).
// Trace events (spans, instants) are buffered as they happen and written to
// the attached trace file in chunks; with no file attached they are not
// kept.  A farm worker ships its snapshot to the parent as to_json() text,
// the same document castanet_report reads and merges.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/histogram.hpp"
#include "src/core/stats.hpp"

namespace castanet::json {
class Value;
}

namespace castanet::telemetry {

/// Identifies one timeline row of the Chrome trace (a backend, the network
/// kernel).  Track 0 is the default "main" row; components that were never
/// assigned a track record there.
using TrackId = std::uint32_t;
constexpr TrackId kMainTrack = 0;

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// One trace event.  `name` must be a static-lifetime string
/// (instrumentation sites use literals); numeric args only, so no ownership.
struct TraceEvent {
  enum class Phase : std::uint8_t { kComplete, kInstant };
  /// The most any site records: "rtl.slice" (from, to, activations,
  /// delta cycles, writes elided, callbacks).
  static constexpr std::size_t kMaxArgs = 6;

  const char* name = "";
  TrackId track = kMainTrack;
  Phase phase = Phase::kInstant;
  double ts_us = 0.0;   ///< wall time relative to the hub epoch
  double dur_us = 0.0;  ///< kComplete only
  std::uint32_t nargs = 0;
  std::array<std::pair<const char*, double>, kMaxArgs> args{};
};

/// One row of the flat metrics snapshot.
struct MetricRow {
  enum class Kind : std::uint8_t {
    kCounter,
    kTimeAverage,
    kHistogram,
  };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< counter value, or samples behind the row
  double sum = 0.0;
  double min = 0.0, max = 0.0, last = 0.0;  ///< NaN where not applicable
  /// Bucketed distribution; populated only for kHistogram rows (lazy
  /// storage: an empty histogram member costs no allocation).
  Log2Histogram hist;
  /// An empty stat (no samples recorded) — exporters render "-" instead of
  /// a fake zero.
  bool empty() const { return count == 0 && kind != Kind::kCounter; }
};

const char* metric_kind_name(MetricRow::Kind k);
/// Inverse of metric_kind_name; false when `name` is unknown.
bool metric_kind_from_name(const std::string& name, MetricRow::Kind* out);

/// Cross-shard row combination (the farm merges per-worker snapshots with
/// this).  Kinds merge as:
///   counter       sums
///   time_average  average-of-averages weighted by shard sample count
///                 (approximate — per-shard durations are not retained);
///                 max NaN-aware, last last-writer
///   histogram     exact bucketwise merge (Log2Histogram::merge)
/// Merging an empty row is a no-op for extrema: NaN-when-empty min/max
/// never poison (or fake-zero) the populated side.  Throws LogicError on a
/// kind mismatch between rows of the same name.
void merge_metric_row(MetricRow& into, const MetricRow& from);

struct MetricsSnapshot {
  std::vector<MetricRow> rows;  ///< sorted by name

  /// to_json_value().dump(2).
  std::string to_json() const;
  std::string to_table() const;

  /// The snapshot as a JSON document; parse side below.
  json::Value to_json_value() const;
  /// Inverse of to_json_value/to_json.  Throws LogicError on a document
  /// that is not a metrics snapshot (missing "metrics" array, bad kinds).
  static MetricsSnapshot from_json(const json::Value& doc);

  /// Merges another shard's snapshot into this one, row-matched by name
  /// (see merge_metric_row for per-kind semantics).
  /// Associative and commutative for counters and histograms.
  void merge_from(const MetricsSnapshot& other);

  /// Row lookup by exact name; nullptr when absent.
  const MetricRow* find(const std::string& name) const;
};

class Hub {
 public:
  static Hub& instance();

  /// Attaches the sink: clears all previous state (finalizing an attached
  /// trace file), arms the enabled flag and (re)starts the wall-clock
  /// epoch.  Instrumentation everywhere begins to record.
  void enable();
  /// Detaches the sink; instrumentation reverts to the single-flag-check
  /// fast path.  Recorded data stays readable until reset()/enable().
  void disable();
  /// disable() plus discard of all metrics and tracks; an attached trace
  /// file is finalized first.
  void reset();

  static bool on() { return g_enabled; }

  // --- counters (hub-owned, created on first use) -------------------------
  Counter& counter(const std::string& name);

  // --- published rows (component-owned stats, pushed at quiescent points) -
  void publish_count(const std::string& name, std::uint64_t value);
  void publish_time_avg(const std::string& name, const TimeAverageStat& s,
                        double now_seconds);
  void publish_histogram(const std::string& name, const Log2Histogram& h);

  // --- timeline rows ------------------------------------------------------
  /// Registers (or looks up) a named timeline row.  Stable until reset().
  TrackId track(const std::string& name);

  // --- trace --------------------------------------------------------------
  /// Buffers one event for the attached trace file; a no-op while disabled
  /// or while no file is attached.  A full buffer is written to the file,
  /// and that write is recorded as a "trace.flush" span on the main row
  /// (arg `events`), so it is not read as work of the span it interrupts.
  void record(const TraceEvent& e);
  /// Events written to the trace file so far; after stop_trace_stream(),
  /// every event recorded while it was attached.
  std::uint64_t trace_events_streamed() const;
  double now_us() const;  ///< wall time relative to the epoch

  /// Attaches a Chrome trace_event file (open in chrome://tracing or
  /// https://ui.perfetto.dev): the JSON header is written now, and from
  /// here on every recorded event reaches the file, in chunks sorted by
  /// start time.  Call after enable().  Returns false if the file cannot be
  /// opened.  The file is not valid JSON until stop_trace_stream() writes
  /// the track metadata and footer; reset()/enable() finalize an attached
  /// file implicitly.
  bool stream_trace_to(const std::string& path);
  /// Writes the buffered events, the track metadata and the footer, and
  /// closes the file.  Returns false when no file is attached or a write to
  /// it failed.
  bool stop_trace_stream();

  // --- metrics export -----------------------------------------------------
  MetricsSnapshot snapshot() const;

 private:
  Hub() = default;

  static bool g_enabled;
  /// Events buffered before a write to the trace file.
  static constexpr std::size_t kChunkEvents = std::size_t{1} << 16;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, MetricRow> published_;

  /// Writes the buffered events (sorted by start time) to the trace file
  /// and empties the buffer.
  void flush_stream();
  /// flush + process and track metadata + footer + close.
  void finalize_stream();

  std::vector<std::string> track_names_;  ///< index == TrackId; [0] = "main"
  std::vector<TraceEvent> buffer_;   ///< events not yet in the file
  std::FILE* stream_ = nullptr;      ///< attached trace file (or null)
  bool stream_first_ = true;         ///< no event row written yet
  bool stream_ok_ = true;            ///< every write to the file succeeded
  std::uint64_t streamed_ = 0;       ///< events written to the file
  std::chrono::steady_clock::time_point epoch_{};
};

/// The single flag check every instrumentation site starts with.
inline bool enabled() { return Hub::on(); }

/// RAII span: construction stamps the start, destruction records one
/// complete ("X") event on `track`.  Construct only behind an enabled()
/// check — a Span unconditionally records.  Up to kMaxArgs numeric args.
class Span {
 public:
  Span(const char* name, TrackId track);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void arg(const char* key, double value);

 private:
  TraceEvent e_;
  std::chrono::steady_clock::time_point start_;
};

/// Records an instant event (a point on the timeline), e.g. a comparator
/// divergence.  Call only behind an enabled() check.
void instant(const char* name, TrackId track,
             std::initializer_list<std::pair<const char*, double>> args = {});

}  // namespace castanet::telemetry
