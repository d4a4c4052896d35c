// Telemetry hub: counters, published rows, span timers, the trace file
// (every event kept past one buffer chunk), and exports that parse back
// through core/json.
#include "src/core/telemetry.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/json.hpp"

namespace castanet::telemetry {
namespace {

std::string read_and_remove(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string body;
  if (f == nullptr) return body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  return body;
}

/// The "traceEvents" rows of a parsed Chrome trace whose "ph" is `ph`.
std::vector<json::Value> rows_with_phase(const json::Value& trace,
                                         const std::string& ph) {
  std::vector<json::Value> out;
  for (const json::Value& e : trace.find("traceEvents")->as_array()) {
    if (e.string_or("ph", "") == ph) out.push_back(e);
  }
  return out;
}

/// Track names listed by the trace's "thread_name" metadata rows, by tid.
std::vector<std::string> thread_names(const json::Value& trace) {
  std::vector<std::string> names;
  for (const json::Value& m : rows_with_phase(trace, "M")) {
    if (m.string_or("name", "") != "thread_name") continue;
    const std::size_t tid = static_cast<std::size_t>(m.int_or("tid", -1));
    if (names.size() <= tid) names.resize(tid + 1);
    names[tid] = m.find("args")->string_or("name", "");
  }
  return names;
}

/// Every test owns the process-wide hub for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { Hub::instance().reset(); }
  void TearDown() override { Hub::instance().reset(); }

  /// enable() plus a trace file at a per-test path.
  void enable_with_trace() {
    Hub::instance().enable();
    ASSERT_TRUE(Hub::instance().stream_trace_to(path_));
  }
  /// Finalizes the trace file and returns it parsed.
  json::Value finish_trace() {
    EXPECT_TRUE(Hub::instance().stop_trace_stream());
    return json::parse(read_and_remove(path_));
  }

  const std::string path_ =
      ::testing::TempDir() + "castanet_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".json";
};

TEST_F(TelemetryTest, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  Hub::instance().enable();
  EXPECT_TRUE(enabled());
  Hub::instance().disable();
  EXPECT_FALSE(enabled());
}

TEST_F(TelemetryTest, CounterAccumulates) {
  Hub::instance().enable();
  Counter& c = Hub::instance().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup by name returns the same handle.
  EXPECT_EQ(&Hub::instance().counter("test.counter"), &c);
}

TEST_F(TelemetryTest, SpanRecordsCompleteEvent) {
  enable_with_trace();
  {
    Span s("unit.span", kMainTrack);
    s.arg("x", 1.5);
  }
  const json::Value trace = finish_trace();
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 1u);
  const std::vector<json::Value> spans = rows_with_phase(trace, "X");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].string_or("name", ""), "unit.span");
  EXPECT_EQ(spans[0].int_or("tid", -1), 0);
  ASSERT_NE(spans[0].find("dur"), nullptr);
  EXPECT_GE(spans[0].find("dur")->as_double(), 0.0);
  ASSERT_NE(spans[0].find("args"), nullptr);
  EXPECT_EQ(spans[0].find("args")->find("x")->as_double(), 1.5);
}

TEST_F(TelemetryTest, InstantRecordsPointEvent) {
  enable_with_trace();
  instant("unit.mark", kMainTrack, {{"k", 2.0}});
  const json::Value trace = finish_trace();
  const std::vector<json::Value> marks = rows_with_phase(trace, "i");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].string_or("name", ""), "unit.mark");
  EXPECT_EQ(marks[0].string_or("s", ""), "t");
  EXPECT_EQ(marks[0].find("dur"), nullptr);
  EXPECT_EQ(marks[0].find("args")->find("k")->as_double(), 2.0);
}

TEST_F(TelemetryTest, RecordIsNoOpWhileDisabled) {
  // Spans/instants are only constructed behind enabled() checks in product
  // code, but Hub::record itself must also be safe to call when disabled,
  // even with a trace file attached.
  enable_with_trace();
  Hub::instance().disable();
  TraceEvent e;
  e.name = "ignored";
  Hub::instance().record(e);
  const json::Value trace = finish_trace();
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 0u);
  EXPECT_TRUE(rows_with_phase(trace, "i").empty());
}

TEST_F(TelemetryTest, EnabledHubWithNoFileWritesNothing) {
  // Without a trace file the hub keeps no events: a file attached later
  // holds only what was recorded after it was attached.
  Hub::instance().enable();
  { Span s("before", kMainTrack); }
  instant("before", kMainTrack);
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 0u);
  ASSERT_TRUE(Hub::instance().stream_trace_to(path_));
  instant("after", kMainTrack);
  const json::Value trace = finish_trace();
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 1u);
  EXPECT_TRUE(rows_with_phase(trace, "X").empty());
  const std::vector<json::Value> marks = rows_with_phase(trace, "i");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].string_or("name", ""), "after");
}

TEST_F(TelemetryTest, StreamKeepsEveryEventPastOneChunk) {
  // The hub writes its buffer to the file every 65,536 events; a run that
  // records more keeps every event, and stop_trace_stream finalizes the
  // file into valid Chrome trace JSON.  The one write of a full buffer adds
  // its own "trace.flush" span.
  constexpr int kEvents = 65'536 + 100;
  enable_with_trace();
  for (int i = 0; i < kEvents; ++i) {
    TraceEvent e;
    e.name = "ev";
    e.phase = TraceEvent::Phase::kInstant;
    e.ts_us = static_cast<double>(i);
    Hub::instance().record(e);
  }
  const json::Value trace = finish_trace();
  EXPECT_EQ(Hub::instance().trace_events_streamed(),
            static_cast<std::uint64_t>(kEvents + 1));
  EXPECT_EQ(trace.string_or("displayTimeUnit", ""), "ms");
  EXPECT_EQ(trace.find("otherData")->int_or("trace_streamed", -1),
            kEvents + 1);
  EXPECT_EQ(trace.find("otherData")->find("trace_dropped"), nullptr);
  const std::vector<json::Value> spans = rows_with_phase(trace, "X");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].string_or("name", ""), "trace.flush");
  EXPECT_EQ(spans[0].int_or("tid", -1), 0);
  EXPECT_EQ(spans[0].find("args")->find("events")->as_double(), 65536.0);
  EXPECT_GE(spans[0].find("dur")->as_double(), 0.0);
  // Every instant made it to disk, each exactly once and in order.
  const std::vector<json::Value> events = rows_with_phase(trace, "i");
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(events[i].string_or("name", ""), "ev") << i;
    ASSERT_EQ(events[i].find("ts")->as_double(), static_cast<double>(i)) << i;
  }
  // A second stop without a stream reports failure.
  EXPECT_FALSE(Hub::instance().stop_trace_stream());
}

TEST_F(TelemetryTest, StopReportsAFailedWrite) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  struct stat st {};
  if (::stat("/dev/full", &st) != 0 || !S_ISCHR(st.st_mode))
    GTEST_SKIP() << "no /dev/full";
  Hub::instance().enable();
  ASSERT_TRUE(Hub::instance().stream_trace_to("/dev/full"));
  instant("lost", kMainTrack);
  EXPECT_FALSE(Hub::instance().stop_trace_stream());
}

TEST_F(TelemetryTest, ResetFinalizesAnActiveStream) {
  enable_with_trace();
  instant("mark", kMainTrack);
  Hub::instance().reset();  // must close and finalize, not leak the FILE
  const json::Value trace = json::parse(read_and_remove(path_));
  const std::vector<json::Value> marks = rows_with_phase(trace, "i");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].string_or("name", ""), "mark");
}

TEST_F(TelemetryTest, TracksAreStableByName) {
  enable_with_trace();
  const TrackId a = Hub::instance().track("backend:rtl");
  const TrackId b = Hub::instance().track("backend:ref");
  EXPECT_NE(a, kMainTrack);
  EXPECT_NE(a, b);
  EXPECT_EQ(Hub::instance().track("backend:rtl"), a);
  { Span s("grant", a); }
  { Span s("grant", b); }
  // The file names every track in registration order, main first.
  const json::Value trace = finish_trace();
  const std::vector<std::string> want{"main", "backend:rtl", "backend:ref"};
  EXPECT_EQ(thread_names(trace), want);
  EXPECT_EQ(rows_with_phase(trace, "X").size(), 2u);
}

TEST_F(TelemetryTest, PublishedRowsAppearInSnapshot) {
  Hub::instance().enable();
  Hub::instance().publish_count("pub.count", 7);
  Log2Histogram h;
  h.record(1.0);
  h.record(3.0);
  Hub::instance().publish_histogram("pub.hist", h);
  TimeAverageStat ta;
  ta.set(0.0, 4.0);
  Hub::instance().publish_time_avg("pub.avg", ta, 2.0);
  Hub::instance().counter("pub.counter").add(3);
  const MetricsSnapshot snap = Hub::instance().snapshot();
  ASSERT_EQ(snap.rows.size(), 4u);
  // Rows are sorted by name; one row kind per publish_* (plus counters).
  EXPECT_EQ(snap.rows[0].name, "pub.avg");
  EXPECT_EQ(snap.rows[0].kind, MetricRow::Kind::kTimeAverage);
  EXPECT_EQ(snap.rows[1].name, "pub.count");
  EXPECT_EQ(snap.rows[1].kind, MetricRow::Kind::kCounter);
  EXPECT_EQ(snap.rows[2].name, "pub.counter");
  EXPECT_EQ(snap.rows[2].kind, MetricRow::Kind::kCounter);
  EXPECT_EQ(snap.rows[3].name, "pub.hist");
  EXPECT_EQ(snap.rows[3].kind, MetricRow::Kind::kHistogram);
  EXPECT_EQ(snap.rows[1].count, 7u);
  EXPECT_EQ(snap.rows[2].count, 3u);
  EXPECT_EQ(snap.rows[3].count, 2u);
  EXPECT_DOUBLE_EQ(snap.rows[3].min, 1.0);
  EXPECT_DOUBLE_EQ(snap.rows[3].max, 3.0);
  EXPECT_DOUBLE_EQ(snap.rows[0].max, 4.0);
}

TEST_F(TelemetryTest, EmptyStatRendersAsEmptyNotZero) {
  Hub::instance().enable();
  Hub::instance().publish_histogram("empty.hist", Log2Histogram{});
  const MetricsSnapshot snap = Hub::instance().snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_TRUE(snap.rows[0].empty());
  EXPECT_NE(snap.to_json().find("\"empty\": true"), std::string::npos);
  // The table renders "-" cells, never a fake 0 sample.
  EXPECT_NE(snap.to_table().find('-'), std::string::npos);
}

TEST_F(TelemetryTest, ResetDiscardsEverything) {
  enable_with_trace();
  Hub::instance().counter("c").add(5);
  instant("gone", kMainTrack);
  Hub::instance().reset();
  read_and_remove(path_);
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 0u);
  Hub::instance().enable();
  EXPECT_TRUE(Hub::instance().snapshot().rows.empty());
  // Re-fetching the name creates a fresh zeroed handle.
  EXPECT_EQ(Hub::instance().counter("c").value(), 0u);
}

// ---------------------------------------------------------------------------
// Both exports parse back through core/json.

TEST_F(TelemetryTest, ChromeTraceJsonIsWellFormed) {
  enable_with_trace();
  const std::string name = "backend:\"quoted\\name\"";
  const TrackId t = Hub::instance().track(name);
  {
    Span s("outer", t);
    s.arg("nested", 1.0);
    instant("inner", t);
  }
  const json::Value trace = finish_trace();
  ASSERT_TRUE(trace.is_object());
  ASSERT_TRUE(trace.find("traceEvents")->is_array());
  // The track name comes back exactly, quotes and backslash included.
  const std::vector<std::string> names = thread_names(trace);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[t], name);
  const std::vector<json::Value> spans = rows_with_phase(trace, "X");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].int_or("tid", -1), static_cast<std::int64_t>(t));
}

TEST_F(TelemetryTest, MetricsJsonIsWellFormed) {
  Hub::instance().enable();
  Hub::instance().counter("a\"b").add(1);
  TimeAverageStat tiny;
  tiny.set(0.0, 1e-12);
  Hub::instance().publish_time_avg("v", tiny, 1.0);
  const MetricsSnapshot back = MetricsSnapshot::from_json(
      json::parse(Hub::instance().snapshot().to_json()));
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0].name, "a\"b");
  EXPECT_EQ(back.rows[0].count, 1u);
  EXPECT_EQ(back.rows[1].max, 1e-12);  // shortest text, exact value
}

TEST_F(TelemetryTest, ControlCharactersSurviveExport) {
  // Tabs and newlines in a metric or track name are escaped, never dropped:
  // both exports give the names back unchanged.
  const std::string metric = "m\tcol\nrow";
  const std::string track = "backend:\tx\ny";
  enable_with_trace();
  Hub::instance().counter(metric).add(2);
  const TrackId t = Hub::instance().track(track);
  { Span s("span", t); }

  const MetricsSnapshot back = MetricsSnapshot::from_json(
      json::parse(Hub::instance().snapshot().to_json()));
  ASSERT_EQ(back.rows.size(), 1u);
  EXPECT_EQ(back.rows[0].name, metric);
  EXPECT_EQ(back.rows[0].count, 2u);

  const json::Value trace = finish_trace();
  const std::vector<std::string> names = thread_names(trace);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[t], track);
}

}  // namespace
}  // namespace castanet::telemetry
