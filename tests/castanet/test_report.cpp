// Run-report consolidation (PR 8): flow-table extraction from merged
// snapshots, span aggregation from Chrome traces, file-level consolidation,
// and the metrics-schema validator behind scripts/check.sh.
#include "src/castanet/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::report {
namespace {

using telemetry::MetricRow;
using telemetry::MetricsSnapshot;
using Kind = MetricRow::Kind;

MetricRow counter(const std::string& name, std::uint64_t value) {
  MetricRow r;
  r.name = name;
  r.kind = Kind::kCounter;
  r.count = value;
  return r;
}

MetricRow latency_hist(const std::string& name,
                       std::initializer_list<double> samples) {
  MetricRow r;
  r.name = name;
  r.kind = Kind::kHistogram;
  for (double s : samples) r.hist.record(s);
  r.count = r.hist.count();
  r.sum = r.hist.sum();
  r.min = r.hist.min();
  r.max = r.hist.max();
  return r;
}

MetricsSnapshot flow_snapshot(std::uint64_t in, std::uint64_t out,
                              std::initializer_list<double> lat) {
  MetricsSnapshot s;
  s.rows.push_back(counter("flow.1/100@0.cells_in", in));
  s.rows.push_back(counter("flow.1/100@0.cells_out", out));
  s.rows.push_back(latency_hist("flow.1/100@0.latency_seconds", lat));
  s.rows.push_back(counter("session.responses", out));
  return s;
}

TEST(RunReport, FlowTableExtractsQuantilesAndCompanionCounters) {
  RunReport rep;
  rep.merged = flow_snapshot(10, 9, {1e-6, 2e-6, 3e-6, 4e-6});
  const auto flows = rep.flow_table();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow, "1/100@0");
  EXPECT_EQ(flows[0].cells_in, 10u);
  EXPECT_EQ(flows[0].cells_out, 9u);
  EXPECT_EQ(flows[0].samples, 4u);
  EXPECT_GT(flows[0].p50, 0.0);
  EXPECT_GE(flows[0].p99, flows[0].p50);
  // Non-flow histograms don't leak into the table.
  rep.merged.rows.push_back(latency_hist("backend.rtl.lag_seconds", {1.0}));
  EXPECT_EQ(rep.flow_table().size(), 1u);
}

TEST(RunReport, TableAndJsonIncludeFlows) {
  RunReport rep;
  rep.merged = flow_snapshot(5, 5, {1e-6});
  rep.shards.push_back(ShardMetrics{"shard0", rep.merged});
  const std::string table = rep.to_table();
  EXPECT_NE(table.find("1/100@0"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  const json::Value doc = rep.to_json();
  ASSERT_NE(doc.find("flows"), nullptr);
  EXPECT_EQ(doc.find("flows")->as_array().size(), 1u);
  ASSERT_NE(doc.find("shards"), nullptr);
}

TEST(SpanAggregation, SumsCompleteEventsByName) {
  const json::Value trace = json::parse(R"({"traceEvents": [
    {"ph": "X", "name": "window", "dur": 10.0},
    {"ph": "X", "name": "window", "dur": 30.0},
    {"ph": "X", "name": "compare", "dur": 5.0},
    {"ph": "B", "name": "ignored"},
    {"ph": "X", "name": "no_dur"}
  ]})");
  std::vector<SpanAgg> spans;
  accumulate_trace_spans(trace, spans);
  finalize_spans(spans, 10);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "window");  // largest total first
  EXPECT_EQ(spans[0].count, 2u);
  EXPECT_EQ(spans[0].total_us, 40.0);
  EXPECT_EQ(spans[0].max_us, 30.0);
  finalize_spans(spans, 1);
  EXPECT_EQ(spans.size(), 1u);
}

TEST(Consolidate, MergesShardFilesExactly) {
  const std::string dir = ::testing::TempDir();
  const std::string p1 = dir + "/shard1.metrics.json";
  const std::string p2 = dir + "/shard2.metrics.json";
  const MetricsSnapshot s1 = flow_snapshot(4, 4, {1e-6, 2e-6});
  const MetricsSnapshot s2 = flow_snapshot(6, 5, {4e-6});
  {
    std::ofstream(p1) << s1.to_json();
    std::ofstream(p2) << s2.to_json();
  }
  const RunReport rep = consolidate({p1, p2}, {});
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.merged.find("flow.1/100@0.cells_in")->count, 10u);
  MetricsSnapshot direct = s1;
  direct.merge_from(s2);
  EXPECT_TRUE(rep.merged.find("flow.1/100@0.latency_seconds")
                  ->hist.identical(
                      direct.find("flow.1/100@0.latency_seconds")->hist));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ValidateMetricsJson, AcceptsSnapshotsAndReportsRejectsJunk) {
  const MetricsSnapshot s = flow_snapshot(3, 3, {1e-6});
  EXPECT_EQ(validate_metrics_json(s.to_json()), "");

  // A run report embeds the snapshot under "metrics" (object form).
  RunReport rep;
  rep.merged = s;
  EXPECT_EQ(validate_metrics_json(rep.to_json().dump(2)), "");

  EXPECT_NE(validate_metrics_json("not json at all"), "");
  EXPECT_NE(validate_metrics_json("[1, 2, 3]"), "");
  EXPECT_NE(validate_metrics_json(R"({"metrics": [{"name": 7}]})"), "");
}

}  // namespace
}  // namespace castanet::cosim::report
