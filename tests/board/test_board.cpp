#include "src/board/board.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::board {
namespace {

/// Pure behavioural DUT: out0 = in0 + in1 (combinational adder with a
/// one-cycle register), plus a bidirectional port pair (in2/out1) that
/// echoes the last written value when the DUT drives.
class AdderDut : public BehavioralDut {
 public:
  void reset() override {
    reg_ = 0;
    latch_ = 0;
  }
  void cycle(const std::vector<std::uint64_t>& inputs,
             const std::vector<bool>& input_enable,
             std::vector<std::uint64_t>& outputs,
             std::vector<bool>& output_enable) override {
    outputs.assign(2, 0);
    output_enable.assign(2, true);
    outputs[0] = reg_;
    reg_ = (inputs[0] + inputs[1]) & 0xFF;
    if (input_enable[2]) {
      latch_ = inputs[2];       // tester drives the bus: latch it
      output_enable[1] = false; // DUT keeps its side released
    } else {
      outputs[1] = latch_;      // tester released: DUT drives the echo
      output_enable[1] = true;
    }
  }
  std::size_t num_inputs() const override { return 3; }
  std::size_t num_outputs() const override { return 2; }

 private:
  std::uint64_t reg_ = 0;
  std::uint64_t latch_ = 0;
};

ConfigDataSet adder_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  cfg.inports.push_back({1, 8, {{1, 0, 8}}});
  cfg.inports.push_back({2, 8, {{2, 0, 8}}});  // bus, tester side
  cfg.outports.push_back({0, 8, {{8, 0, 8}}});
  cfg.outports.push_back({1, 8, {{9, 0, 8}}});  // bus, DUT side
  cfg.ctrlports.push_back({0, 1, {{3, 0, 1}}, 0});
  cfg.ioports.push_back({2, 1, 0, 8, 1});
  return cfg;
}

class BoardTest : public ::testing::Test {
 protected:
  HardwareTestBoard board;
  AdderDut dut;

  void SetUp() override { board.configure(adder_config()); }
};

TEST_F(BoardTest, RunRequiresConfiguration) {
  HardwareTestBoard fresh;
  AdderDut d;
  EXPECT_THROW(fresh.run_test_cycle(d, 4), castanet::LogicError);
}

TEST_F(BoardTest, StimulusReplayAndCapture) {
  board.load_stimulus(0, {1, 2, 3, 4});
  board.load_stimulus(1, {10, 20, 30, 40});
  const auto stats = board.run_test_cycle(dut, 4);
  EXPECT_EQ(stats.cycles, 4u);
  const auto& cap = board.response(0);
  ASSERT_EQ(cap.values.size(), 4u);
  // One-cycle register: output c is the sum from cycle c-1.
  EXPECT_EQ(cap.values[1], 11u);
  EXPECT_EQ(cap.values[2], 22u);
  EXPECT_EQ(cap.values[3], 33u);
}

TEST_F(BoardTest, AutoDurationFromLoadedStimulus) {
  board.load_stimulus(0, std::vector<std::uint64_t>(7, 1));
  const auto stats = board.run_test_cycle(dut);
  EXPECT_EQ(stats.cycles, 7u);
}

TEST_F(BoardTest, UnknownPortRejected) {
  EXPECT_THROW(board.load_stimulus(9, {1}), ConfigError);
  EXPECT_THROW(board.load_ctrl(9, {1}), ConfigError);
}

TEST_F(BoardTest, DurationBounds) {
  EXPECT_THROW(board.run_test_cycle(dut, 0), ConfigError);  // nothing loaded
  EXPECT_THROW(board.run_test_cycle(dut, kMaxTestCycle + 1), ConfigError);
}

TEST_F(BoardTest, ClockBeyondBoardMaximumRejected) {
  board.load_stimulus(0, {1});
  EXPECT_THROW(board.run_test_cycle(dut, 1, 25'000'000), ConfigError);
}

TEST_F(BoardTest, BidirectionalBusBothPhases) {
  // Cycle 0-1: tester drives 0x5A onto the bus (ctrl=0).
  // Cycle 2-3: DUT drives; the capture must show the echoed 0x5A.
  board.load_stimulus(0, {0, 0, 0, 0});
  board.load_stimulus(1, {0, 0, 0, 0});
  board.load_stimulus(2, {0x5A, 0x5A, 0, 0});
  board.load_ctrl(0, {0, 0, 1, 1});
  board.run_test_cycle(dut, 4);
  const auto& cap = board.response(1);
  ASSERT_EQ(cap.values.size(), 4u);
  EXPECT_FALSE(cap.enabled[0]);  // tester-drive phase: no capture
  EXPECT_FALSE(cap.enabled[1]);
  EXPECT_TRUE(cap.enabled[2]);
  EXPECT_EQ(cap.values[2], 0x5Au);
  EXPECT_TRUE(cap.enabled[3]);
}

TEST_F(BoardTest, ModeledTimesAccumulate) {
  board.load_stimulus(0, std::vector<std::uint64_t>(1000, 1));
  const auto stats = board.run_test_cycle(dut, 1000, 20'000'000);
  // HW time: 1000 cycles at 20 MHz = 50 us.
  EXPECT_EQ(stats.hw_time, SimTime::from_us(50));
  // SW time dominated by the SCSI command overhead (2 transfers here, plus
  // the config upload recorded earlier on the channel).
  EXPECT_GT(stats.sw_time, SimTime::from_us(500));
  EXPECT_GT(board.scsi().transfers(), 2u);
}

TEST_F(BoardTest, GatingFactorSlowsDutClock) {
  ConfigDataSet cfg = adder_config();
  cfg.gating_factor = 4;
  board.configure(cfg);
  board.load_stimulus(0, std::vector<std::uint64_t>(100, 1));
  const auto stats = board.run_test_cycle(dut, 100, 20'000'000);
  // DUT clock = 5 MHz: 100 cycles take 20 us.
  EXPECT_EQ(stats.hw_time, SimTime::from_us(20));
}

TEST_F(BoardTest, TestCyclesCounted) {
  board.load_stimulus(0, {1, 1});
  board.run_test_cycle(dut, 2);
  board.run_test_cycle(dut, 2);
  EXPECT_EQ(board.test_cycles_run(), 2u);
}

TEST_F(BoardTest, InportBeyondDutInputsRejected) {
  // Two inports fit the DUT's three inputs by count, but inport 7 has no
  // input to drive.
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  cfg.inports.push_back({7, 8, {{1, 0, 8}}});
  board.configure(cfg);
  board.load_stimulus(7, {1});
  EXPECT_THROW(board.run_test_cycle(dut, 1), castanet::LogicError);
}

TEST_F(BoardTest, ResponseForUnknownOutportThrows) {
  board.load_stimulus(0, {1});
  board.run_test_cycle(dut, 1);
  EXPECT_THROW(board.response(5), castanet::LogicError);
}

}  // namespace
}  // namespace castanet::board
