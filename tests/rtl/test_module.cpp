#include "src/rtl/module.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace castanet::rtl {
namespace {

class Counter : public Module {
 public:
  Counter(Simulator& sim, Signal clk, Signal rst)
      : Module(sim, "counter"), clk_(clk), rst_(rst) {
    count = make_bus("count", 8, Logic::L0);
    clocked("count_up", clk_, [this] {
      if (rst_.read_bool()) {
        count.write_uint(0);
      } else {
        count.write_uint((count.read_uint() + 1) & 0xFF);
      }
    });
  }
  Bus count;

 private:
  Signal clk_;
  Signal rst_;
};

struct ClockedFixture : public ::testing::Test {
  Simulator sim;
  Signal clk{&sim, sim.create_signal("clk", 1, Logic::L0)};
  Signal rst{&sim, sim.create_signal("rst", 1, Logic::L0)};

  void run_cycles(ClockGen& gen, std::uint64_t n) {
    const std::uint64_t target = gen.rising_edges() + n;
    while (gen.rising_edges() < target && sim.step_time()) {
    }
  }
};

TEST_F(ClockedFixture, ClockGenProducesEdges) {
  ClockGen gen(sim, clk, SimTime::from_ns(50));
  sim.run_until(SimTime::from_ns(500));
  // Edges at 0, 50, 100, ..., 500 -> 11 rising edges (first at phase 0).
  EXPECT_EQ(gen.rising_edges(), 11u);
}

TEST_F(ClockedFixture, ClockGenStops) {
  ClockGen gen(sim, clk, SimTime::from_ns(50));
  sim.run_until(SimTime::from_ns(200));
  gen.stop();
  const auto edges = gen.rising_edges();
  sim.run_until(SimTime::from_ns(1000));
  EXPECT_EQ(gen.rising_edges(), edges);
}

TEST_F(ClockedFixture, ClockOutlivesItsHandle) {
  // The edges are kernel data: destroying the handle leaves the clock
  // running, and stepping never touches the handle again.
  auto gen = std::make_unique<ClockGen>(sim, clk, SimTime::from_ns(50));
  sim.run_until(SimTime::from_ns(100));
  gen.reset();
  std::vector<std::pair<SimTime, Logic>> edges;
  sim.add_change_observer([&](SignalId s, const LogicVector& v, SimTime t) {
    if (s == clk.id()) edges.emplace_back(t, v.bit(0));
  });
  sim.run_until(SimTime::from_ns(300));
  // Falling at 125, 175, ...; rising at 150, 200, ..., 300.
  ASSERT_EQ(edges.size(), 8u);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].first,
              SimTime::from_ns(125 + 25 * static_cast<std::int64_t>(i)));
    EXPECT_EQ(edges[i].second, i % 2 == 0 ? Logic::L0 : Logic::L1);
  }
}

TEST_F(ClockedFixture, ClockedProcessCountsOnlyRisingEdges) {
  Counter c(sim, clk, rst);
  ClockGen gen(sim, clk, SimTime::from_ns(50));
  sim.run_until(SimTime::from_ns(50 * 10));
  // 11 rising edges; count registers the increments.
  EXPECT_EQ(c.count.read_uint(), 11u);
}

TEST_F(ClockedFixture, SynchronousReset) {
  Counter c(sim, clk, rst);
  ClockGen gen(sim, clk, SimTime::from_ns(50));
  sim.run_until(SimTime::from_ns(200));
  EXPECT_GT(c.count.read_uint(), 0u);
  rst.write(Logic::L1);
  sim.run_until(SimTime::from_ns(300));
  EXPECT_EQ(c.count.read_uint(), 0u);
  rst.write(Logic::L0);
  sim.run_until(SimTime::from_ns(400));
  EXPECT_GT(c.count.read_uint(), 0u);
}

TEST_F(ClockedFixture, HierarchicalNames) {
  Counter c(sim, clk, rst);
  EXPECT_EQ(sim.signal_name(c.count.id()), "counter.count");
}

TEST_F(ClockedFixture, ClockPhaseDelaysFirstEdge) {
  ClockGen gen(sim, clk, SimTime::from_ns(50), SimTime::from_ns(30));
  sim.run_until(SimTime::from_ns(29));
  EXPECT_EQ(gen.rising_edges(), 0u);
  sim.run_until(SimTime::from_ns(30));
  EXPECT_EQ(gen.rising_edges(), 1u);
}

TEST_F(ClockedFixture, BusWriteHelpers) {
  Bus b(&sim, sim.create_signal("b", 16, Logic::L0));
  b.write_uint(0xBEEF);
  sim.step_time();
  EXPECT_EQ(b.read_uint(), 0xBEEFu);
  b.release();
  sim.step_time();
  EXPECT_EQ(b.read().to_string(), std::string(16, 'Z'));
}

}  // namespace
}  // namespace castanet::rtl
