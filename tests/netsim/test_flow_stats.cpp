// Per-flow cell statistics (PR 8): FIFO latency pairing, alias resolution
// for header-translating switches, Hub publication, and the disabled-path
// contract — note_* calls cost one relaxed-atomic check and ZERO heap
// allocations while telemetry is off.
#include "src/netsim/flow_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/telemetry.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: replaces the global allocator for this test binary so
// the disabled-path test can assert "no allocations happened here".  Only
// counts; behavior is unchanged.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace castanet::netsim {
namespace {

class FlowStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::Hub::instance().reset();
    telemetry::Hub::instance().enable();
  }
  void TearDown() override {
    telemetry::Hub::instance().disable();
    telemetry::Hub::instance().reset();
  }
  FlowRegistry reg;
};

TEST_F(FlowStatsTest, KeyPackingAndPrinting) {
  const FlowKey a{1, 100, 0};
  const FlowKey b{1, 100, 1};
  EXPECT_LT(a, b);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.to_string(), "1/100@0");
}

TEST_F(FlowStatsTest, FifoLatencyPairing) {
  const FlowKey key{1, 100, 0};
  reg.note_in(key, SimTime::from_us(10));
  reg.note_in(key, SimTime::from_us(20));
  reg.note_out(key, SimTime::from_us(15));  // pairs with the 10us entry
  reg.note_out(key, SimTime::from_us(26));  // pairs with the 20us entry
  const FlowStats* f = reg.find(key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->cells_in, 2u);
  EXPECT_EQ(f->cells_out, 2u);
  EXPECT_EQ(f->latency.count(), 2u);
  EXPECT_DOUBLE_EQ(f->latency.min(), 5e-6);
  EXPECT_DOUBLE_EQ(f->latency.max(), 6e-6);
  EXPECT_TRUE(f->pending.empty());
}

TEST_F(FlowStatsTest, AliasChargesOutputCellsToTheInputFlow) {
  // Header translation: cells entering as 1/100@0 leave as 2/200@1.
  const FlowKey in{1, 100, 0};
  const FlowKey out{2, 200, 1};
  reg.alias(out, in);
  reg.note_in(in, SimTime::from_us(1));
  reg.note_out(out, SimTime::from_us(3));
  const FlowStats* f = reg.find(in);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->cells_in, 1u);
  EXPECT_EQ(f->cells_out, 1u);
  EXPECT_DOUBLE_EQ(f->latency.min(), 2e-6);
  // No phantom flow under the output key.
  EXPECT_EQ(reg.find(out), nullptr);
}

TEST_F(FlowStatsTest, PublishEmitsPerFlowRows) {
  const FlowKey key{1, 101, 2};
  reg.note_in(key, SimTime::from_us(5));
  reg.note_out(key, SimTime::from_us(8));
  reg.publish("flow", 1e-3);
  const telemetry::MetricsSnapshot snap = telemetry::Hub::instance().snapshot();
  const telemetry::MetricRow* in = snap.find("flow.1/101@2.cells_in");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->count, 1u);
  const telemetry::MetricRow* lat = snap.find("flow.1/101@2.latency_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, telemetry::MetricRow::Kind::kHistogram);
  EXPECT_EQ(lat->hist.count(), 1u);
  EXPECT_NE(snap.find("flow.1/101@2.in_flight"), nullptr);
}

TEST_F(FlowStatsTest, DisabledPathMakesZeroAllocationsAndRecordsNothing) {
  telemetry::Hub::instance().disable();
  ASSERT_FALSE(telemetry::enabled());
  const FlowKey key{1, 100, 0};
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    reg.note_in(key, SimTime::from_us(i));
    reg.note_out(key, SimTime::from_us(i + 1));
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.find(key), nullptr);
}

}  // namespace
}  // namespace castanet::netsim
