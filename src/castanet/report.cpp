#include "src/castanet/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/core/error.hpp"

namespace castanet::cosim::report {

namespace {

/// Headline counters surfaced per shard in the report.
std::uint64_t row_count(const telemetry::MetricsSnapshot& s,
                        const std::string& name) {
  const telemetry::MetricRow* r = s.find(name);
  return r != nullptr ? r->count : 0;
}

/// Exact equality, with NaN (an absent value) equal to NaN.
bool same_double(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

std::vector<FlowRow> RunReport::flow_table() const {
  // Flow rows are published as flow.<key>.latency_seconds (histogram) plus
  // flow.<key>.cells_in/cells_out counters; the histogram row anchors the
  // table and the counters are looked up by name.
  std::vector<FlowRow> out;
  constexpr const char* kPrefix = "flow.";
  constexpr const char* kSuffix = ".latency_seconds";
  for (const telemetry::MetricRow& r : merged.rows) {
    if (r.kind != telemetry::MetricRow::Kind::kHistogram) continue;
    if (r.name.rfind(kPrefix, 0) != 0) continue;
    const std::size_t suffix_at = r.name.size() - std::char_traits<char>::length(kSuffix);
    if (r.name.size() <= std::char_traits<char>::length(kSuffix) ||
        r.name.compare(suffix_at, std::string::npos, kSuffix) != 0) {
      continue;
    }
    FlowRow row;
    row.flow = r.name.substr(std::char_traits<char>::length(kPrefix),
                             suffix_at - std::char_traits<char>::length(kPrefix));
    const std::string base = std::string(kPrefix) + row.flow + ".";
    row.cells_in = row_count(merged, base + "cells_in");
    row.cells_out = row_count(merged, base + "cells_out");
    row.samples = r.hist.count();
    if (row.samples > 0) {
      row.p50 = r.hist.quantile(0.50);
      row.p90 = r.hist.quantile(0.90);
      row.p99 = r.hist.quantile(0.99);
      row.p999 = r.hist.quantile(0.999);
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRow& a, const FlowRow& b) { return a.flow < b.flow; });
  return out;
}

json::Value RunReport::to_json() const {
  json::Value doc{json::Object{}};
  json::Value shard_rows{json::Array{}};
  for (const ShardMetrics& s : shards) {
    json::Value row{json::Object{}};
    row.set("path", s.path);
    row.set("rows", static_cast<std::int64_t>(s.snapshot.rows.size()));
    row.set("responses",
            static_cast<std::int64_t>(row_count(s.snapshot, "session.responses")));
    row.set("divergences",
            static_cast<std::int64_t>(
                row_count(s.snapshot, "session.divergences")));
    shard_rows.push_back(std::move(row));
  }
  doc.set("shards", std::move(shard_rows));
  doc.set("metrics", merged.to_json_value());
  json::Value flows{json::Array{}};
  for (const FlowRow& f : flow_table()) {
    json::Value row{json::Object{}};
    row.set("flow", f.flow);
    row.set("cells_in", static_cast<std::int64_t>(f.cells_in));
    row.set("cells_out", static_cast<std::int64_t>(f.cells_out));
    row.set("samples", static_cast<std::int64_t>(f.samples));
    row.set("p50", f.p50);
    row.set("p90", f.p90);
    row.set("p99", f.p99);
    row.set("p999", f.p999);
    flows.push_back(std::move(row));
  }
  doc.set("flows", std::move(flows));
  json::Value spans{json::Array{}};
  for (const SpanAgg& s : top_spans) {
    json::Value row{json::Object{}};
    row.set("name", s.name);
    row.set("count", static_cast<std::int64_t>(s.count));
    row.set("total_us", s.total_us);
    row.set("max_us", s.max_us);
    spans.push_back(std::move(row));
  }
  doc.set("top_spans", std::move(spans));
  return doc;
}

std::string RunReport::to_table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "run report: %zu shard(s), %zu metric row(s)\n",
                shards.size(), merged.rows.size());
  out += line;
  for (const ShardMetrics& s : shards) {
    std::snprintf(line, sizeof line,
                  "  shard %-40s rows=%-5zu responses=%llu divergences=%llu\n",
                  s.path.c_str(), s.snapshot.rows.size(),
                  static_cast<unsigned long long>(
                      row_count(s.snapshot, "session.responses")),
                  static_cast<unsigned long long>(
                      row_count(s.snapshot, "session.divergences")));
    out += line;
  }
  const std::vector<FlowRow> flows = flow_table();
  if (!flows.empty()) {
    out += "\nper-flow cell latency (seconds)\n";
    std::snprintf(line, sizeof line, "%-16s %8s %8s %11s %11s %11s %11s\n",
                  "flow", "in", "out", "p50", "p90", "p99", "p99.9");
    out += line;
    out.append(81, '-');
    out += "\n";
    for (const FlowRow& f : flows) {
      std::snprintf(line, sizeof line,
                    "%-16s %8llu %8llu %11.3g %11.3g %11.3g %11.3g\n",
                    f.flow.c_str(),
                    static_cast<unsigned long long>(f.cells_in),
                    static_cast<unsigned long long>(f.cells_out), f.p50,
                    f.p90, f.p99, f.p999);
      out += line;
    }
  }
  if (!top_spans.empty()) {
    out += "\ntop spans by total duration\n";
    std::snprintf(line, sizeof line, "%-32s %10s %14s %12s\n", "span", "count",
                  "total_us", "max_us");
    out += line;
    out.append(72, '-');
    out += "\n";
    for (const SpanAgg& s : top_spans) {
      std::snprintf(line, sizeof line, "%-32s %10llu %14.1f %12.1f\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    s.total_us, s.max_us);
      out += line;
    }
  }
  return out;
}

void accumulate_trace_spans(const json::Value& trace,
                            std::vector<SpanAgg>& spans) {
  const json::Value* events = trace.find("traceEvents");
  if (events == nullptr || !events->is_array()) return;
  for (const json::Value& e : events->as_array()) {
    if (!e.is_object()) continue;
    if (e.string_or("ph", "") != "X") continue;  // complete events only
    const json::Value* name = e.find("name");
    const json::Value* dur = e.find("dur");
    if (name == nullptr || !name->is_string() || dur == nullptr ||
        !dur->is_number()) {
      continue;
    }
    const double d = dur->as_double();
    SpanAgg* slot = nullptr;
    for (SpanAgg& s : spans) {
      if (s.name == name->as_string()) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      spans.push_back(SpanAgg{name->as_string(), 0, 0.0, 0.0});
      slot = &spans.back();
    }
    ++slot->count;
    slot->total_us += d;
    slot->max_us = std::max(slot->max_us, d);
  }
}

void finalize_spans(std::vector<SpanAgg>& spans, std::size_t top_n) {
  std::sort(spans.begin(), spans.end(), [](const SpanAgg& a, const SpanAgg& b) {
    return a.total_us > b.total_us;
  });
  if (spans.size() > top_n) spans.resize(top_n);
}

RunReport consolidate(const std::vector<std::string>& metrics_paths,
                      const std::vector<std::string>& trace_paths,
                      std::size_t top_n) {
  RunReport rep;
  for (const std::string& path : metrics_paths) {
    ShardMetrics shard;
    shard.path = path;
    shard.snapshot = telemetry::MetricsSnapshot::from_json(
        json::parse_file(path));
    rep.merged.merge_from(shard.snapshot);
    rep.shards.push_back(std::move(shard));
  }
  std::vector<SpanAgg> spans;
  for (const std::string& path : trace_paths) {
    accumulate_trace_spans(json::parse_file(path), spans);
  }
  finalize_spans(spans, top_n);
  rep.top_spans = std::move(spans);
  return rep;
}

std::string validate_metrics_json(const std::string& text) {
  using telemetry::MetricsSnapshot;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    return std::string("not valid JSON: ") + e.what();
  }
  // A farm/run report embeds the snapshot under "metrics" (object form); a
  // bare snapshot has "metrics" as the row array directly.
  const json::Value* snap_doc = &doc;
  if (const json::Value* m = doc.find("metrics");
      m != nullptr && m->is_object()) {
    snap_doc = m;
  }
  MetricsSnapshot first;
  try {
    first = MetricsSnapshot::from_json(*snap_doc);
  } catch (const std::exception& e) {
    return std::string("not a metrics snapshot: ") + e.what();
  }
  MetricsSnapshot second;
  try {
    second = MetricsSnapshot::from_json(first.to_json_value());
  } catch (const std::exception& e) {
    return std::string("re-parse of exported snapshot failed: ") + e.what();
  }
  if (first.rows.size() != second.rows.size()) {
    return "round-trip changed the row count";
  }
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    const telemetry::MetricRow& a = first.rows[i];
    const telemetry::MetricRow& b = second.rows[i];
    if (a.name != b.name || a.kind != b.kind || a.count != b.count) {
      return "round-trip changed row \"" + a.name + "\"";
    }
    if (!same_double(a.sum, b.sum) || !same_double(a.min, b.min) ||
        !same_double(a.max, b.max) || !same_double(a.last, b.last)) {
      return "round-trip changed the values of row \"" + a.name + "\"";
    }
    if (a.kind == telemetry::MetricRow::Kind::kHistogram) {
      // Bucket counts are integers: the round-trip must be EXACT.
      if (a.hist.zero_count() != b.hist.zero_count() ||
          a.hist.nonzero_buckets() != b.hist.nonzero_buckets()) {
        return "round-trip changed the histogram buckets of row \"" + a.name +
               "\"";
      }
    }
  }
  return "";
}

}  // namespace castanet::cosim::report
