#include "src/core/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/core/error.hpp"
#include "src/core/json.hpp"

namespace castanet::telemetry {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Opens a Chrome trace document; rows follow one per line, then
/// Hub::finalize_stream closes it.
constexpr const char* kTraceHeader = "{\"traceEvents\": [\n";

/// Appends one row to a Chrome trace document, comma-separated.
void append_row(std::string& out, bool& first, const json::Value& row) {
  if (!first) out += ",\n";
  first = false;
  out += row.dump();
}

/// One Chrome trace_event row for `e`.  `track_count` clamps unknown tracks
/// onto the main row.
json::Value trace_event_row(const TraceEvent& e, std::size_t track_count) {
  const bool complete = e.phase == TraceEvent::Phase::kComplete;
  const std::size_t tid = e.track < track_count ? e.track : 0;
  json::Value row{json::Object{}};
  row.set("name", e.name);
  row.set("ph", complete ? "X" : "i");
  row.set("pid", 1);
  row.set("tid", static_cast<std::int64_t>(tid));
  row.set("ts", e.ts_us);
  if (complete) {
    row.set("dur", e.dur_us);
  } else {
    row.set("s", "t");  // instant scope: thread
  }
  if (e.nargs) {
    json::Value args{json::Object{}};
    for (std::uint32_t a = 0; a < e.nargs; ++a)
      args.set(e.args[a].first, e.args[a].second);
    row.set("args", std::move(args));
  }
  return row;
}

/// A Chrome metadata ("M") row: `name` with `args` on track `tid`.
json::Value metadata_row(const char* name, std::size_t tid, json::Value args) {
  json::Value row{json::Object{}};
  row.set("name", name);
  row.set("ph", "M");
  row.set("pid", 1);
  row.set("tid", static_cast<std::int64_t>(tid));
  row.set("args", std::move(args));
  return row;
}

}  // namespace

const char* metric_kind_name(MetricRow::Kind k) {
  switch (k) {
    case MetricRow::Kind::kCounter: return "counter";
    case MetricRow::Kind::kTimeAverage: return "time_average";
    case MetricRow::Kind::kHistogram: return "histogram";
  }
  return "?";
}

bool metric_kind_from_name(const std::string& name, MetricRow::Kind* out) {
  static constexpr MetricRow::Kind kAll[] = {
      MetricRow::Kind::kCounter,
      MetricRow::Kind::kTimeAverage,
      MetricRow::Kind::kHistogram,
  };
  for (MetricRow::Kind k : kAll) {
    if (name == metric_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Hub.

bool Hub::g_enabled = false;

Hub& Hub::instance() {
  static Hub hub;
  return hub;
}

void Hub::enable() {
  reset();
  epoch_ = std::chrono::steady_clock::now();
  g_enabled = true;
}

void Hub::disable() { g_enabled = false; }

void Hub::reset() {
  disable();
  counters_.clear();
  published_.clear();
  if (stream_ != nullptr) finalize_stream();
  track_names_.clear();
  streamed_ = 0;
}

Counter& Hub::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

void Hub::publish_count(const std::string& name, std::uint64_t value) {
  MetricRow row;
  row.name = name;
  row.kind = MetricRow::Kind::kCounter;
  row.count = value;
  row.sum = static_cast<double>(value);
  row.min = row.max = row.last = kNaN;
  published_[name] = std::move(row);
}

void Hub::publish_time_avg(const std::string& name, const TimeAverageStat& s,
                           double now_seconds) {
  MetricRow row;
  row.name = name;
  row.kind = MetricRow::Kind::kTimeAverage;
  row.count = 1;
  row.sum = s.average(now_seconds);
  row.min = kNaN;
  row.max = s.max();
  row.last = s.current();
  published_[name] = std::move(row);
}

void Hub::publish_histogram(const std::string& name, const Log2Histogram& h) {
  MetricRow row;
  row.name = name;
  row.kind = MetricRow::Kind::kHistogram;
  row.count = h.count();
  row.sum = h.sum();
  row.min = h.min();
  row.max = h.max();
  row.last = kNaN;
  row.hist = h;
  published_[name] = std::move(row);
}

TrackId Hub::track(const std::string& name) {
  if (track_names_.empty()) track_names_.push_back("main");
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<TrackId>(i);
  }
  track_names_.push_back(name);
  return static_cast<TrackId>(track_names_.size() - 1);
}

void Hub::record(const TraceEvent& e) {
  if (!on() || stream_ == nullptr) return;
  buffer_.push_back(e);
  if (buffer_.size() < kChunkEvents) return;
  // The write lands inside whatever span is open; a span of its own on the
  // main row tells the two apart.  It goes into the next chunk.
  TraceEvent flush;
  flush.name = "trace.flush";
  flush.phase = TraceEvent::Phase::kComplete;
  flush.ts_us = now_us();
  flush.nargs = 1;
  flush.args[0] = {"events", static_cast<double>(buffer_.size())};
  flush_stream();
  flush.dur_us = now_us() - flush.ts_us;
  buffer_.push_back(flush);
}

bool Hub::stream_trace_to(const std::string& path) {
  if (stream_ != nullptr) finalize_stream();
  stream_ = std::fopen(path.c_str(), "w");
  if (stream_ == nullptr) return false;
  stream_first_ = true;
  stream_ok_ = std::fputs(kTraceHeader, stream_) >= 0;
  streamed_ = 0;
  return true;
}

bool Hub::stop_trace_stream() {
  if (stream_ == nullptr) return false;
  finalize_stream();
  return stream_ok_;
}

void Hub::flush_stream() {
  // Spans are recorded when they END, so a parent lands after its children:
  // each flushed chunk is sorted by start time locally; chunks flush in
  // wall-clock order, so the file stays roughly sorted overall — Perfetto
  // re-sorts on load regardless.
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  const std::size_t tracks =
      track_names_.empty() ? 1 : track_names_.size();
  std::string rows;
  for (const TraceEvent& e : buffer_)
    append_row(rows, stream_first_, trace_event_row(e, tracks));
  if (std::fwrite(rows.data(), 1, rows.size(), stream_) != rows.size() ||
      std::fflush(stream_) != 0) {
    stream_ok_ = false;
  }
  streamed_ += buffer_.size();
  buffer_.clear();
}

void Hub::finalize_stream() {
  flush_stream();
  std::vector<std::string> tracks = track_names_;
  if (tracks.empty()) tracks.push_back("main");
  std::string tail;
  json::Value process{json::Object{}};
  process.set("name", "castanet");
  append_row(tail, stream_first_,
             metadata_row("process_name", 0, std::move(process)));
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    json::Value name{json::Object{}};
    name.set("name", tracks[t]);
    append_row(tail, stream_first_,
               metadata_row("thread_name", t, std::move(name)));
    // Force track order to registration order (backends in attach order).
    json::Value order{json::Object{}};
    order.set("sort_index", static_cast<std::int64_t>(t));
    append_row(tail, stream_first_,
               metadata_row("thread_sort_index", t, std::move(order)));
  }
  json::Value other{json::Object{}};
  other.set("trace_streamed", static_cast<std::int64_t>(streamed_));
  tail += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " +
          other.dump() + "}\n";
  if (std::fwrite(tail.data(), 1, tail.size(), stream_) != tail.size())
    stream_ok_ = false;
  if (std::fclose(stream_) != 0) stream_ok_ = false;
  stream_ = nullptr;
  stream_first_ = true;
}

std::uint64_t Hub::trace_events_streamed() const { return streamed_; }

double Hub::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

// ---------------------------------------------------------------------------
// Metrics snapshot.

MetricsSnapshot Hub::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    MetricRow row;
    row.name = name;
    row.kind = MetricRow::Kind::kCounter;
    row.count = c->value();
    row.sum = static_cast<double>(c->value());
    row.min = row.max = row.last = kNaN;
    snap.rows.push_back(std::move(row));
  }
  for (const auto& [name, row] : published_) snap.rows.push_back(row);
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  return to_json_value().dump(2);
}

json::Value MetricsSnapshot::to_json_value() const {
  json::Array metrics;
  metrics.reserve(rows.size());
  for (const MetricRow& r : rows) {
    // NaN extrema (no samples, or not applicable) dump as null.
    json::Value row{json::Object{}};
    row.set("name", r.name);
    row.set("kind", metric_kind_name(r.kind));
    row.set("count", static_cast<std::int64_t>(r.count));
    if (r.empty()) {
      row.set("empty", true);
    } else {
      row.set("sum", r.sum);
      row.set("min", r.min);
      row.set("max", r.max);
      row.set("last", r.last);
      if (r.kind == MetricRow::Kind::kHistogram) {
        row.set("zero", static_cast<std::int64_t>(r.hist.zero_count()));
        json::Array buckets;
        for (const auto& [b, c] : r.hist.nonzero_buckets()) {
          buckets.push_back(json::Value{json::Array{
              json::Value(static_cast<std::int64_t>(b)),
              json::Value(static_cast<std::int64_t>(c))}});
        }
        row.set("buckets", json::Value{std::move(buckets)});
        row.set("p50", r.hist.quantile(0.50));
        row.set("p90", r.hist.quantile(0.90));
        row.set("p99", r.hist.quantile(0.99));
        row.set("p999", r.hist.quantile(0.999));
      }
    }
    metrics.push_back(std::move(row));
  }
  json::Value doc{json::Object{}};
  doc.set("metrics", json::Value{std::move(metrics)});
  return doc;
}

MetricsSnapshot MetricsSnapshot::from_json(const json::Value& doc) {
  const json::Value* metrics = doc.find("metrics");
  require(metrics != nullptr && metrics->is_array(),
          "MetricsSnapshot::from_json: missing \"metrics\" array");
  // null (JSON's NaN stand-in) and absent both decode to NaN.
  const auto num = [](const json::Value* v) {
    return v != nullptr && v->is_number() ? v->as_double() : kNaN;
  };
  MetricsSnapshot snap;
  for (const json::Value& entry : metrics->as_array()) {
    require(entry.is_object(),
            "MetricsSnapshot::from_json: metric row is not an object");
    MetricRow row;
    const json::Value* name = entry.find("name");
    require(name != nullptr && name->is_string(),
            "MetricsSnapshot::from_json: metric row without a name");
    row.name = name->as_string();
    require(metric_kind_from_name(entry.string_or("kind", ""), &row.kind),
            "MetricsSnapshot::from_json: unknown metric kind");
    row.count = static_cast<std::uint64_t>(entry.int_or("count", 0));
    if (entry.bool_or("empty", false)) {
      row.sum = row.kind == MetricRow::Kind::kCounter ? 0.0 : kNaN;
      row.min = row.max = row.last = kNaN;
    } else {
      row.sum = num(entry.find("sum"));
      row.min = num(entry.find("min"));
      row.max = num(entry.find("max"));
      row.last = num(entry.find("last"));
      if (row.kind == MetricRow::Kind::kHistogram) {
        std::vector<std::pair<int, std::uint64_t>> buckets;
        if (const json::Value* b = entry.find("buckets");
            b != nullptr && b->is_array()) {
          for (const json::Value& pair : b->as_array()) {
            require(pair.is_array() && pair.as_array().size() == 2,
                    "MetricsSnapshot::from_json: bad histogram bucket");
            buckets.emplace_back(
                static_cast<int>(pair.as_array()[0].as_int()),
                static_cast<std::uint64_t>(pair.as_array()[1].as_int()));
          }
        }
        row.hist = Log2Histogram::from_parts(
            row.count, row.sum, row.min, row.max,
            static_cast<std::uint64_t>(entry.int_or("zero", 0)), buckets);
      }
    }
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) {
              return a.name < b.name;
            });
  return snap;
}

void merge_metric_row(MetricRow& into, const MetricRow& from) {
  require(into.kind == from.kind,
          "merge_metric_row: kind mismatch for metric \"" + into.name + "\"");
  // NaN-aware maximum: an empty side never contributes a fake zero.
  const auto nan_max = [](double a, double b) {
    if (std::isnan(a)) return b;
    if (std::isnan(b)) return a;
    return std::max(a, b);
  };
  switch (into.kind) {
    case MetricRow::Kind::kCounter:
      into.count += from.count;
      into.sum = static_cast<double>(into.count);
      break;
    case MetricRow::Kind::kTimeAverage:
      // Approximate: per-shard observation durations are not retained, so
      // weight each shard's average by its sample count.
      if (from.count != 0) {
        if (into.count != 0) {
          const double n = static_cast<double>(into.count);
          const double m = static_cast<double>(from.count);
          into.sum = (into.sum * n + from.sum * m) / (n + m);
        } else {
          into.sum = from.sum;
        }
        into.max = nan_max(into.max, from.max);
        into.last = from.last;
        into.count += from.count;
      }
      break;
    case MetricRow::Kind::kHistogram:
      into.hist.merge(from.hist);
      into.count = into.hist.count();
      into.sum = into.hist.sum();
      into.min = into.hist.min();
      into.max = into.hist.max();
      break;
  }
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  // Both row lists are sorted by name; classic sorted merge.
  std::vector<MetricRow> merged;
  merged.reserve(rows.size() + other.rows.size());
  std::size_t i = 0, j = 0;
  while (i < rows.size() || j < other.rows.size()) {
    if (j >= other.rows.size() ||
        (i < rows.size() && rows[i].name < other.rows[j].name)) {
      merged.push_back(std::move(rows[i++]));
    } else if (i >= rows.size() || other.rows[j].name < rows[i].name) {
      merged.push_back(other.rows[j++]);
    } else {
      MetricRow row = std::move(rows[i++]);
      merge_metric_row(row, other.rows[j++]);
      merged.push_back(std::move(row));
    }
  }
  rows = std::move(merged);
}

const MetricRow* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_table() const {
  const auto cell = [](double v) -> std::string {
    if (!std::isfinite(v)) return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  };
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %-12s %10s %12s %12s %12s\n",
                "metric", "kind", "count", "min", "max", "value");
  out += line;
  out.append(105, '-');
  out += "\n";
  for (const MetricRow& r : rows) {
    // value column: counters show the count; time averages the
    // time-weighted mean.
    std::string value;
    switch (r.kind) {
      case MetricRow::Kind::kCounter:
        value = std::to_string(r.count);
        break;
      case MetricRow::Kind::kTimeAverage:
        value = cell(r.sum);
        break;
      case MetricRow::Kind::kHistogram:
        // value column: p99 — the tail is what a latency histogram is for.
        value = r.empty() ? "-" : cell(r.hist.quantile(0.99));
        break;
    }
    std::snprintf(line, sizeof(line), "%-44s %-12s %10llu %12s %12s %12s\n",
                  r.name.c_str(), metric_kind_name(r.kind),
                  static_cast<unsigned long long>(r.count),
                  r.empty() ? "-" : cell(r.min).c_str(),
                  r.empty() ? "-" : cell(r.max).c_str(), value.c_str());
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Span / instant.

Span::Span(const char* name, TrackId track)
    : start_(std::chrono::steady_clock::now()) {
  e_.name = name;
  e_.track = track;
  e_.phase = TraceEvent::Phase::kComplete;
}

void Span::arg(const char* key, double value) {
  if (e_.nargs < TraceEvent::kMaxArgs) e_.args[e_.nargs++] = {key, value};
}

Span::~Span() {
  Hub& hub = Hub::instance();
  const double end_us = hub.now_us();
  e_.dur_us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  e_.ts_us = end_us - e_.dur_us;
  hub.record(e_);
}

void instant(const char* name, TrackId track,
             std::initializer_list<std::pair<const char*, double>> args) {
  Hub& hub = Hub::instance();
  TraceEvent e;
  e.name = name;
  e.track = track;
  e.phase = TraceEvent::Phase::kInstant;
  e.ts_us = hub.now_us();
  for (const auto& a : args) {
    if (e.nargs < TraceEvent::kMaxArgs) e.args[e.nargs++] = a;
  }
  hub.record(e);
}

}  // namespace castanet::telemetry
