// Cross-shard metric combination: per-kind MetricRow merging, snapshot
// merge_from, and the JSON round-trip the metrics-schema gate relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/core/error.hpp"
#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"

namespace castanet {
namespace {

using telemetry::MetricRow;
using telemetry::MetricsSnapshot;
using Kind = MetricRow::Kind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// merge_metric_row

MetricRow make_row(const std::string& name, Kind kind, std::uint64_t count,
                   double sum, double min, double max, double last) {
  MetricRow r;
  r.name = name;
  r.kind = kind;
  r.count = count;
  r.sum = sum;
  r.min = min;
  r.max = max;
  r.last = last;
  return r;
}

TEST(MergeMetricRow, CountersSum) {
  MetricRow a = make_row("c", Kind::kCounter, 7, 0, kNaN, kNaN, kNaN);
  const MetricRow b = make_row("c", Kind::kCounter, 5, 0, kNaN, kNaN, kNaN);
  merge_metric_row(a, b);
  EXPECT_EQ(a.count, 12u);
}

TEST(MergeMetricRow, EmptySideNeverPoisonsExtrema) {
  // The empty shard exports NaN extrema; merging it must not turn the
  // populated side's max and last value into NaN (or fake zeros), in
  // either direction, for either kind that carries extrema.
  MetricRow avg = make_row("q", Kind::kTimeAverage, 1, 2.0, kNaN, 4.0, 3.0);
  const MetricRow empty_avg =
      make_row("q", Kind::kTimeAverage, 0, kNaN, kNaN, kNaN, kNaN);
  merge_metric_row(avg, empty_avg);
  EXPECT_EQ(avg.count, 1u);
  EXPECT_EQ(avg.sum, 2.0);
  EXPECT_EQ(avg.max, 4.0);
  EXPECT_EQ(avg.last, 3.0);

  MetricRow e = empty_avg;
  merge_metric_row(e, avg);
  EXPECT_EQ(e.count, 1u);
  EXPECT_EQ(e.sum, 2.0);
  EXPECT_EQ(e.max, 4.0);
  EXPECT_EQ(e.last, 3.0);

  MetricRow e2 = empty_avg;
  merge_metric_row(e2, empty_avg);
  EXPECT_EQ(e2.count, 0u);
  EXPECT_TRUE(std::isnan(e2.max));
  EXPECT_TRUE(std::isnan(e2.last));

  MetricRow hist = make_row("h", Kind::kHistogram, 0, 0, kNaN, kNaN, kNaN);
  hist.hist.record(0.5);
  hist.hist.record(8.0);
  const MetricRow empty_hist =
      make_row("h", Kind::kHistogram, 0, 0, kNaN, kNaN, kNaN);
  merge_metric_row(hist, empty_hist);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.min, 0.5);
  EXPECT_EQ(hist.max, 8.0);

  MetricRow eh = empty_hist;
  merge_metric_row(eh, hist);
  EXPECT_EQ(eh.count, 2u);
  EXPECT_EQ(eh.min, 0.5);
  EXPECT_EQ(eh.max, 8.0);
}

TEST(MergeMetricRow, HistogramsMergeBucketwise) {
  MetricRow a;
  a.name = "h";
  a.kind = Kind::kHistogram;
  a.hist.record(1.0);
  a.hist.record(2.5);
  a.count = a.hist.count();
  MetricRow b = a;
  b.hist.record(100.0);
  b.count = b.hist.count();

  Log2Histogram expect = a.hist;
  expect.merge(b.hist);
  merge_metric_row(a, b);
  EXPECT_TRUE(a.hist.identical(expect));
  EXPECT_EQ(a.count, 5u);
}

TEST(MergeMetricRow, KindMismatchThrows) {
  MetricRow a = make_row("x", Kind::kCounter, 1, 0, kNaN, kNaN, kNaN);
  const MetricRow b =
      make_row("x", Kind::kTimeAverage, 1, 1.0, kNaN, 1.0, 1.0);
  EXPECT_THROW(merge_metric_row(a, b), LogicError);
}

TEST(MetricKindNames, RoundTrip) {
  for (const Kind k :
       {Kind::kCounter, Kind::kTimeAverage, Kind::kHistogram}) {
    Kind back = Kind::kCounter;
    ASSERT_TRUE(metric_kind_from_name(metric_kind_name(k), &back))
        << metric_kind_name(k);
    EXPECT_EQ(back, k);
  }
  Kind out;
  EXPECT_FALSE(metric_kind_from_name("histogramme", &out));
  EXPECT_FALSE(metric_kind_from_name("timing", &out));
  EXPECT_FALSE(metric_kind_from_name("gauge", &out));
}

// ---------------------------------------------------------------------------
// MetricsSnapshot merge + JSON round-trip

MetricsSnapshot make_snapshot(std::uint64_t counter_val, double base) {
  MetricsSnapshot s;
  s.rows.push_back(
      make_row("a.count", Kind::kCounter, counter_val, 0, kNaN, kNaN, kNaN));
  MetricRow h;
  h.name = "b.hist";
  h.kind = Kind::kHistogram;
  h.hist.record(base);
  h.hist.record(base * 2);
  h.count = h.hist.count();
  h.sum = h.hist.sum();
  h.min = h.hist.min();
  h.max = h.hist.max();
  h.last = kNaN;
  s.rows.push_back(std::move(h));
  s.rows.push_back(
      make_row("c.value", Kind::kTimeAverage, 1, base, kNaN, base, base));
  return s;
}

TEST(MetricsSnapshot, MergeFromSumsAndUnions) {
  MetricsSnapshot a = make_snapshot(3, 1.0);
  MetricsSnapshot b = make_snapshot(4, 8.0);
  // A row only shard b has: it must appear in the merge untouched.  Rows
  // are kept sorted by name ("a.count" < "aa.only_b" < "b.hist").
  b.rows.insert(b.rows.begin() + 1,
                make_row("aa.only_b", Kind::kCounter, 9, 0, kNaN, kNaN, kNaN));
  a.merge_from(b);
  ASSERT_EQ(a.rows.size(), 4u);
  EXPECT_EQ(a.find("a.count")->count, 7u);
  EXPECT_EQ(a.find("aa.only_b")->count, 9u);
  EXPECT_EQ(a.find("b.hist")->count, 4u);
  EXPECT_EQ(a.find("c.value")->count, 2u);
  EXPECT_EQ(a.find("c.value")->last, 8.0);  // b was merged last
  // Rows stay sorted by name (merge_from's invariant).
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    EXPECT_LT(a.rows[i - 1].name, a.rows[i].name);
  }
}

TEST(MetricsSnapshot, MergedShardsIdenticalToSingleProcess) {
  // Counters and histograms are exact under merge: shard-and-merge must be
  // indistinguishable from recording everything in one process.
  MetricsSnapshot whole = make_snapshot(7, 1.0);
  {
    MetricRow& h = whole.rows[1];
    h.hist.record(8.0);
    h.hist.record(16.0);
    h.count = h.hist.count();
    h.sum = h.hist.sum();
    h.min = h.hist.min();
    h.max = h.hist.max();
  }
  MetricsSnapshot s1 = make_snapshot(3, 1.0);
  MetricsSnapshot s2 = make_snapshot(4, 8.0);
  s1.merge_from(s2);
  EXPECT_EQ(s1.find("a.count")->count, whole.find("a.count")->count);
  EXPECT_TRUE(s1.find("b.hist")->hist.identical(whole.find("b.hist")->hist));
}

TEST(MetricsSnapshot, JsonRoundTripIsStructurallyExact) {
  const MetricsSnapshot s = make_snapshot(5, 0.25);
  const MetricsSnapshot back = MetricsSnapshot::from_json(s.to_json_value());
  ASSERT_EQ(back.rows.size(), s.rows.size());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, s.rows[i].name);
    EXPECT_EQ(back.rows[i].kind, s.rows[i].kind);
    EXPECT_EQ(back.rows[i].count, s.rows[i].count);
  }
  EXPECT_EQ(back.find("c.value")->last, 0.25);
  EXPECT_TRUE(back.find("b.hist")->hist.identical(s.find("b.hist")->hist));

  // And the string form parses back the same way.
  const MetricsSnapshot again =
      MetricsSnapshot::from_json(json::parse(s.to_json()));
  EXPECT_EQ(again.rows.size(), s.rows.size());
  EXPECT_TRUE(again.find("b.hist")->hist.identical(s.find("b.hist")->hist));
}

TEST(MetricsSnapshot, EmptySnapshotJsonRoundTrips) {
  const MetricsSnapshot back =
      MetricsSnapshot::from_json(json::parse(MetricsSnapshot{}.to_json()));
  EXPECT_TRUE(back.rows.empty());
}

TEST(MetricsSnapshot, JsonRoundTripKeepsNaNExtremaAndValues) {
  // NaN (no sample, or not applicable) travels as null and comes back as
  // NaN, not 0; finite values come back bit-exact.
  MetricsSnapshot s = make_snapshot(5, 0.1);
  s.rows.push_back(
      make_row("d.avg", Kind::kTimeAverage, 3, 1.0 / 3.0, kNaN, 30.0, 8.0));
  s.rows.push_back(
      make_row("e.idle", Kind::kTimeAverage, 0, kNaN, kNaN, kNaN, kNaN));
  const MetricsSnapshot back =
      MetricsSnapshot::from_json(json::parse(s.to_json()));
  ASSERT_EQ(back.rows.size(), s.rows.size());
  const MetricRow& counter = *back.find("a.count");
  EXPECT_TRUE(std::isnan(counter.min));
  EXPECT_TRUE(std::isnan(counter.max));
  EXPECT_TRUE(std::isnan(counter.last));
  const MetricRow& avg = *back.find("d.avg");
  EXPECT_EQ(avg.count, 3u);
  EXPECT_EQ(avg.sum, 1.0 / 3.0);
  EXPECT_TRUE(std::isnan(avg.min));
  EXPECT_EQ(avg.max, 30.0);
  EXPECT_EQ(avg.last, 8.0);
  const MetricRow& idle = *back.find("e.idle");
  EXPECT_TRUE(idle.empty());
  EXPECT_TRUE(std::isnan(idle.sum));
  EXPECT_TRUE(std::isnan(idle.max));
  EXPECT_EQ(back.find("b.hist")->sum, s.find("b.hist")->sum);
  EXPECT_TRUE(std::isnan(back.find("b.hist")->last));
}

TEST(MetricsSnapshot, FromJsonRejectsNonSnapshots) {
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse("[]")), LogicError);
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse(R"({"x": 1})")),
               LogicError);
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse(
                   R"({"metrics": [{"name": "a", "kind": "flux"}]})")),
               LogicError);
}

}  // namespace
}  // namespace castanet
