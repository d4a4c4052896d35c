#include "src/traffic/processes.hpp"

#include <gtest/gtest.h>

#include "src/netsim/simulation.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::traffic {
namespace {

TEST(GeneratorProcess, EmitsSourceCellsAtSourceTimes) {
  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto cbr = std::make_unique<CbrSource>(atm::VcId{1, 100}, 0,
                                         SimTime::from_us(10));
  auto& gen = n.add_process<GeneratorProcess>("gen", std::move(cbr), 20);
  auto& sink = n.add_process<SinkProcess>("sink");
  sim.connect(gen, 0, sink, 0);
  sim.run();
  EXPECT_EQ(gen.cells_sent(), 20u);
  EXPECT_EQ(sink.cells_received(), 20u);
  ASSERT_EQ(sink.log().size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(sink.log()[i].time, SimTime::from_us(10) * static_cast<std::int64_t>(i));
    EXPECT_EQ(cell_sequence(sink.log()[i].cell), i);
  }
}

TEST(GeneratorProcess, StopsAtMaxCells) {
  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto src = std::make_unique<PoissonSource>(atm::VcId{1, 1}, 0, 1e6, Rng(3));
  auto& gen = n.add_process<GeneratorProcess>("gen", std::move(src), 5);
  auto& sink = n.add_process<SinkProcess>("sink");
  sim.connect(gen, 0, sink, 0);
  sim.run();
  EXPECT_EQ(gen.cells_sent(), 5u);
}

TEST(SinkProcess, RecordsDelayStatistic) {
  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto src = std::make_unique<CbrSource>(atm::VcId{1, 1}, 0,
                                         SimTime::from_us(10));
  auto& gen = n.add_process<GeneratorProcess>("gen", std::move(src), 10);
  auto& sink = n.add_process<SinkProcess>("sink");
  sim.connect(gen, 0, sink, 0,
              netsim::LinkParams{SimTime::from_us(50), 0});
  sim.run();
  const SampleStat& stat = sink.delay();
  EXPECT_EQ(stat.count(), 10u);
  EXPECT_NEAR(stat.mean(), 50e-6, 1e-9);
}

TEST(SinkProcess, LogCanBeDisabled) {
  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto src = std::make_unique<CbrSource>(atm::VcId{1, 1}, 0,
                                         SimTime::from_us(10));
  auto& gen = n.add_process<GeneratorProcess>("gen", std::move(src), 10);
  auto& sink = n.add_process<SinkProcess>("sink");
  sink.set_keep_log(false);
  sim.connect(gen, 0, sink, 0);
  sim.run();
  EXPECT_EQ(sink.cells_received(), 10u);
  EXPECT_TRUE(sink.log().empty());
}

TEST(GeneratorProcess, TraceReplayThroughNetwork) {
  // Record a trace, replay it through the network simulator, and verify the
  // sink observes identical cells at identical times.
  CbrSource src({5, 50}, 1, SimTime::from_us(25));
  const CellTrace trace = CellTrace::record(src, 15);

  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto& gen = n.add_process<GeneratorProcess>(
      "gen", std::make_unique<TraceSource>(trace), 15);
  auto& sink = n.add_process<SinkProcess>("sink");
  sim.connect(gen, 0, sink, 0);
  sim.run();
  ASSERT_EQ(sink.log().size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(sink.log()[i].time, trace.arrivals()[i].time);
    EXPECT_EQ(sink.log()[i].cell, trace.arrivals()[i].cell);
  }
}

}  // namespace
}  // namespace castanet::traffic
