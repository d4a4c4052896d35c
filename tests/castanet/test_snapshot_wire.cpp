// Wire serialization of telemetry snapshots (PR 8): the frame a farm worker
// ships its final Hub state through.  Round-trip exactness, canonical NaN
// (re-encoding a decoded frame is byte-identical, so frame digests are
// meaningful), and rejection of malformed frames.
#include "src/castanet/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::wire {
namespace {

using telemetry::MetricRow;
using telemetry::MetricsSnapshot;
using Kind = MetricRow::Kind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot s;
  MetricRow counter;
  counter.name = "events";
  counter.kind = Kind::kCounter;
  counter.count = 1234;
  counter.sum = 0.0;
  counter.min = counter.max = counter.last = kNaN;
  s.rows.push_back(counter);

  MetricRow hist;
  hist.name = "lag";
  hist.kind = Kind::kHistogram;
  hist.hist.record(0.0);
  hist.hist.record(1e-6);
  hist.hist.record(2e-6);
  hist.hist.record(0.5);
  hist.count = hist.hist.count();
  hist.sum = hist.hist.sum();
  hist.min = hist.hist.min();
  hist.max = hist.hist.max();
  hist.last = kNaN;
  s.rows.push_back(hist);

  MetricRow gauge;
  gauge.name = "hit_rate";
  gauge.kind = Kind::kGauge;
  gauge.count = 3;
  gauge.sum = 42.0;
  gauge.min = 4.0;
  gauge.max = 30.0;
  gauge.last = 8.0;
  s.rows.push_back(gauge);

  s.trace_events = 99;
  s.trace_dropped = 1;
  return s;
}

TEST(SnapshotWire, RoundTripsExactly) {
  const MetricsSnapshot s = sample_snapshot();
  const MetricsSnapshot back = decode_snapshot(encode_snapshot(s));
  ASSERT_EQ(back.rows.size(), s.rows.size());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, s.rows[i].name);
    EXPECT_EQ(back.rows[i].kind, s.rows[i].kind);
    EXPECT_EQ(back.rows[i].count, s.rows[i].count);
    EXPECT_EQ(back.rows[i].sum, s.rows[i].sum);
  }
  // NaN survives as NaN (not 0) and histogram buckets are bit-exact.
  EXPECT_TRUE(std::isnan(back.rows[0].min));
  EXPECT_TRUE(back.rows[1].hist.identical(s.rows[1].hist));
  EXPECT_EQ(back.rows[2].min, 4.0);
  EXPECT_EQ(back.trace_events, 99u);
  EXPECT_EQ(back.trace_dropped, 1u);
}

TEST(SnapshotWire, EmptySnapshotRoundTrips) {
  const MetricsSnapshot back = decode_snapshot(encode_snapshot({}));
  EXPECT_TRUE(back.rows.empty());
  EXPECT_EQ(back.trace_events, 0u);
}

TEST(SnapshotWire, ReencodingADecodedFrameIsByteIdentical) {
  // Digest-meaningful frames: decode -> encode must reproduce the original
  // bytes, which requires every NaN to encode as THE canonical quiet NaN.
  const std::vector<std::uint8_t> frame = encode_snapshot(sample_snapshot());
  const std::vector<std::uint8_t> again =
      encode_snapshot(decode_snapshot(frame));
  EXPECT_EQ(again, frame);
}

TEST(SnapshotWire, WriterCanonicalizesEveryNaN) {
  Writer a, b;
  a.f64(std::numeric_limits<double>::quiet_NaN());
  b.f64(-std::numeric_limits<double>::signaling_NaN());
  EXPECT_EQ(a.data(), b.data());
  Reader r(a.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(SnapshotWire, RejectsBadVersionAndBadKind) {
  std::vector<std::uint8_t> frame = encode_snapshot(sample_snapshot());
  std::vector<std::uint8_t> bad_version = frame;
  bad_version[0] = 0xee;
  EXPECT_THROW(decode_snapshot(bad_version), ProtocolError);

  // Truncated frame: drop the trailing trace totals.
  std::vector<std::uint8_t> truncated(frame.begin(), frame.end() - 8);
  EXPECT_THROW(decode_snapshot(truncated), ProtocolError);
}

}  // namespace
}  // namespace castanet::cosim::wire
