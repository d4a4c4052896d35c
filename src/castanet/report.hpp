// Run-level report consolidation (PR 8).
//
// A farm run leaves N per-shard artifacts behind: metrics JSON snapshots
// (one per session, retagged by tagged_path) and Chrome trace files.  This
// module folds them back into ONE run-level view — the table a soak run is
// judged by: merged aggregates (counters summed, histograms merged exactly),
// a per-flow latency quantile table, and the top-N spans by total wall time
// across every shard's trace.
//
// Used by tools/castanet_report (standalone consolidator over files on disk)
// and by castanet_farm --report (in-process, straight from the FarmReport).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::report {

/// One input shard: a metrics snapshot plus where it came from.
struct ShardMetrics {
  std::string path;  ///< source file ("<memory>" for in-process shards)
  telemetry::MetricsSnapshot snapshot;
};

/// One row of the per-flow quantile table, extracted from the merged
/// snapshot's "flow.<key>.*" rows.
struct FlowRow {
  std::string flow;  ///< "vpi/vci@stream"
  std::uint64_t cells_in = 0;
  std::uint64_t cells_out = 0;
  std::uint64_t samples = 0;  ///< latency histogram count
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0;
};

/// One aggregated span family across every shard trace.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct RunReport {
  std::vector<ShardMetrics> shards;
  telemetry::MetricsSnapshot merged;
  std::vector<SpanAgg> top_spans;

  /// Extracted from `merged`; sorted by flow key string.
  std::vector<FlowRow> flow_table() const;

  /// {"shards": [...], "metrics": {...}, "flows": [...], "top_spans": [...]}
  json::Value to_json() const;
  /// Human-readable: shard rows, the per-flow quantile table, top spans.
  std::string to_table() const;
};

/// Loads per-shard metrics JSON files and (optionally) Chrome traces, merges
/// everything.  `top_n` bounds the span table.  Throws IoError on unreadable
/// files, LogicError on documents that are not metrics snapshots.
RunReport consolidate(const std::vector<std::string>& metrics_paths,
                      const std::vector<std::string>& trace_paths,
                      std::size_t top_n = 10);

/// Aggregates complete ("X") events of one parsed Chrome trace into `spans`
/// (name-keyed; call per trace, then finalize_spans to rank).
void accumulate_trace_spans(const json::Value& trace,
                            std::vector<SpanAgg>& spans);
/// Sorts by total duration descending and truncates to `top_n`.
void finalize_spans(std::vector<SpanAgg>& spans, std::size_t top_n);

/// Schema check used by `scripts/check.sh` (metrics-schema gate): the
/// document must be a metrics snapshot (or a farm/run report embedding one
/// under "metrics") that survives a from_json -> to_json_value -> from_json
/// round-trip intact: names, kinds, counts, values (exactly, NaN == NaN) and
/// histogram buckets.  Returns an empty string on success, the
/// failure reason otherwise.
std::string validate_metrics_json(const std::string& text);

}  // namespace castanet::cosim::report
