#include "src/board/dut.hpp"

#include <gtest/gtest.h>

#include <random>

#include "src/core/error.hpp"

namespace castanet::board {
namespace {

/// A pin-level 8-bit accumulator: out = sum of sampled inputs; input 1 adds,
/// input 0 is the operand.
class AccumulatorDut {
 public:
  RtlDutAdapter adapter;
  rtl::Bus operand, out;
  rtl::Signal add;

  AccumulatorDut() {
    auto& sim = adapter.sim();
    rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
    rtl::Signal rst(&sim, sim.create_signal("rst", 1, rtl::Logic::L0));
    operand = rtl::Bus(&sim, sim.create_signal("operand", 8, rtl::Logic::L0));
    add = rtl::Signal(&sim, sim.create_signal("add", 1, rtl::Logic::L0));
    out = rtl::Bus(&sim, sim.create_signal("out", 8, rtl::Logic::L0));
    sim.add_process("acc", {clk.id()}, [this, clk, rst] {
      if (!clk.rose()) return;
      if (rst.read_bool()) {
        acc_ = 0;
      } else if (add.read_bool()) {
        acc_ = (acc_ + operand.read_uint()) & 0xFF;
      }
      out.write_uint(acc_);
    });
    adapter.set_clock(clk);
    adapter.set_reset(rst);
    adapter.add_input(operand);
    adapter.add_input(rtl::Bus(&sim, add.id()));
    adapter.add_output(out);
  }

 private:
  std::uint64_t acc_ = 0;
};

TEST(RtlDutAdapter, CyclesApplyInputsAndCaptureOutputs) {
  AccumulatorDut dut;
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({5, 1}, {true, true}, out, en);
  dut.adapter.cycle({7, 1}, {true, true}, out, en);
  EXPECT_EQ(out[0], 12u);
  EXPECT_TRUE(en[0]);
  dut.adapter.cycle({100, 0}, {true, true}, out, en);  // add deasserted
  EXPECT_EQ(out[0], 12u);
}

TEST(RtlDutAdapter, ResetClearsState) {
  AccumulatorDut dut;
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({9, 1}, {true, true}, out, en);
  EXPECT_EQ(out[0], 9u);
  // Inputs hold their last values through reset (pins are level-driven), so
  // deassert 'add' first, as a real tester would.
  dut.adapter.cycle({0, 0}, {true, true}, out, en);
  dut.adapter.reset();
  dut.adapter.cycle({0, 0}, {true, true}, out, en);
  EXPECT_EQ(out[0], 0u);
}

TEST(RtlDutAdapter, ReleasedOutputsReportDisabled) {
  RtlDutAdapter a;
  auto& sim = a.sim();
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Bus bus(&sim, sim.create_signal("bus", 8, rtl::Logic::Z));
  a.set_clock(clk);
  a.add_output(bus);
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  a.cycle({}, {}, out, en);
  EXPECT_FALSE(en[0]);  // all-Z: nobody driving
}

TEST(RtlDutAdapter, TimingViolationsOnlyWhenOverclocked) {
  AccumulatorDut dut;
  dut.adapter.set_max_safe_hz(10'000'000, /*fault_period=*/4);
  dut.adapter.set_actual_hz(5'000'000);  // within rating
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  for (int i = 0; i < 8; ++i) dut.adapter.cycle({1, 1}, {true, true}, out, en);
  EXPECT_EQ(dut.adapter.timing_violations(), 0u);
  EXPECT_EQ(out[0], 8u);

  // Overclocked: every 4th cycle misses its inputs.
  dut.adapter.reset();
  dut.adapter.set_actual_hz(20'000'000);
  for (int i = 0; i < 8; ++i) dut.adapter.cycle({1, 1}, {true, true}, out, en);
  EXPECT_EQ(dut.adapter.timing_violations(), 2u);
  // The accumulator still adds on violated cycles (inputs held), so the sum
  // is correct here; what matters is that violations are counted and the
  // stale-input mechanism engaged.  A value-visible case is exercised in
  // the board tests.
  EXPECT_EQ(dut.adapter.cycles(), 8u);
}

TEST(RtlDutAdapter, StaleInputsVisibleWhenValuesChange) {
  AccumulatorDut dut;
  dut.adapter.set_max_safe_hz(10'000'000, /*fault_period=*/2);
  dut.adapter.set_actual_hz(20'000'000);
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  // Alternate operand 1, 10, 1, 10 ... every 2nd cycle keeps old inputs.
  std::uint64_t healthy_sum = 0;
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t operand = i % 2 == 0 ? 1 : 10;
    healthy_sum += operand;
    dut.adapter.cycle({operand, 1}, {true, true}, out, en);
  }
  EXPECT_NE(out[0], healthy_sum & 0xFF);  // corruption observable at speed
}

TEST(RtlDutAdapter, SteadyCycleStagesOnlyTheClockWrites) {
  AccumulatorDut dut;
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({3, 0}, {true, true}, out, en);
  const rtl::KernelStats& st = dut.adapter.sim().stats();
  // Unchanged pins (and an accumulator holding its value) leave only the
  // clock's rising and falling writes to stage.
  std::uint64_t before = st.transactions;
  dut.adapter.cycle({3, 0}, {true, true}, out, en);
  EXPECT_EQ(st.transactions - before, 2u);
  // A changed pin is re-driven: one more write.
  before = st.transactions;
  dut.adapter.cycle({4, 0}, {true, true}, out, en);
  EXPECT_EQ(st.transactions - before, 3u);
  EXPECT_EQ(dut.operand.read_uint(), 4u);
}

TEST(RtlDutAdapter, ViolatedCycleValueIsReDrivenNextCycle) {
  AccumulatorDut dut;
  dut.adapter.set_max_safe_hz(10'000'000, /*fault_period=*/2);
  dut.adapter.set_actual_hz(20'000'000);
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({5, 0}, {true, true}, out, en);  // applied
  dut.adapter.cycle({9, 0}, {true, true}, out, en);  // violated: pins keep 5
  ASSERT_EQ(dut.adapter.timing_violations(), 1u);
  EXPECT_EQ(dut.operand.read_uint(), 5u);
  // Asks for the operand the violated cycle missed: it must be driven now,
  // although this cycle asks for the same value as the one before.
  dut.adapter.cycle({9, 1}, {true, true}, out, en);
  EXPECT_EQ(dut.operand.read_uint(), 9u);
  EXPECT_EQ(out[0], 9u);
}

/// An 8-bit bidirectional bus: while `dir` is '1' the DUT drives
/// `latch + 1` from each rising edge; otherwise it releases the bus and
/// latches what the tester drives at each falling edge.
class EchoBusDut {
 public:
  RtlDutAdapter adapter;
  rtl::Bus bus;
  rtl::Signal dir;

  EchoBusDut() {
    auto& sim = adapter.sim();
    rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
    bus = rtl::Bus(&sim, sim.create_signal("bus", 8, rtl::Logic::Z));
    dir = rtl::Signal(&sim, sim.create_signal("dir", 1, rtl::Logic::L0));
    sim.add_process("echo", {clk.id()}, [this, clk] {
      if (clk.rose()) {
        if (dir.read_bool()) {
          bus.write_uint((latch_ + 1) & 0xFF);
        } else {
          bus.release();
        }
      } else if (clk.fell() && !dir.read_bool() && bus.read().is_defined()) {
        latch_ = bus.read_uint();
      }
    });
    adapter.set_clock(clk);
    adapter.add_input(bus);
    adapter.add_input(rtl::Bus(&sim, dir.id()));
    adapter.add_output(bus);
  }

  /// The adapter's own drive of the bus (its test-bench driver slot).
  const rtl::LogicVector& tester_drive() {
    return *adapter.sim().driver_value(bus.id(), rtl::kExternalProcess);
  }

 private:
  std::uint64_t latch_ = 0x10;
};

TEST(RtlDutAdapter, BidirectionalBusReleaseDriveRelease) {
  EchoBusDut dut;
  const rtl::LogicVector released(8, rtl::Logic::Z);
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  // Tester releases, DUT drives.
  dut.adapter.cycle({0, 1}, {false, true}, out, en);
  EXPECT_EQ(dut.tester_drive(), released);
  EXPECT_TRUE(en[0]);
  EXPECT_EQ(out[0], 0x11u);
  // Tester drives, DUT releases and latches.
  dut.adapter.cycle({0x5A, 0}, {true, true}, out, en);
  EXPECT_TRUE(dut.tester_drive().equals_uint(0x5A));
  EXPECT_TRUE(en[0]);
  EXPECT_EQ(out[0], 0x5Au);
  // Tester releases again, DUT drives what it latched plus one.
  dut.adapter.cycle({0x5A, 1}, {false, true}, out, en);
  EXPECT_EQ(dut.tester_drive(), released);
  EXPECT_TRUE(en[0]);
  EXPECT_EQ(out[0], 0x5Bu);
  // Both sides released: nobody drives.
  dut.adapter.cycle({0, 0}, {false, true}, out, en);
  EXPECT_FALSE(en[0]);
  EXPECT_EQ(out[0], 0u);
}

TEST(RtlDutAdapter, OutputWordsMatchPerBitDecode) {
  RtlDutAdapter a;
  auto& sim = a.sim();
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  a.set_clock(clk);
  const std::size_t widths[] = {1, 7, 33, 64};
  std::vector<rtl::Bus> nets;
  for (std::size_t w : widths) {
    nets.emplace_back(&sim, sim.create_signal("o" + std::to_string(w), w,
                                              rtl::Logic::U));
    a.add_output(nets.back());
  }
  std::mt19937_64 rng(23);
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  for (int round = 0; round < 200; ++round) {
    std::vector<rtl::LogicVector> want;
    for (const rtl::Bus& net : nets) {
      rtl::LogicVector v(net.width(), rtl::Logic::Z);
      if (round % 4 != 0) {  // every fourth round leaves the nets all-'Z'
        for (std::size_t b = 0; b < v.width(); ++b) {
          v.set_bit(b, static_cast<rtl::Logic>(rng() % 9));
        }
      }
      net.write(v);  // the only driver: the net takes exactly this value
      want.push_back(v);
    }
    a.cycle({}, {}, out, en);
    for (std::size_t o = 0; o < nets.size(); ++o) {
      std::uint64_t value = 0;
      bool enable = false;
      for (std::size_t b = 0; b < want[o].width(); ++b) {
        const rtl::Logic bit = want[o].bit(b);
        if (rtl::to_bool(bit)) value |= std::uint64_t{1} << b;
        if (bit != rtl::Logic::Z) enable = true;
      }
      ASSERT_EQ(nets[o].read(), want[o]);
      EXPECT_EQ(out[o], value) << "round " << round << " output " << o;
      EXPECT_EQ(en[o], enable) << "round " << round << " output " << o;
    }
  }
}

TEST(RtlDutAdapter, InputWiderThan64Rejected) {
  RtlDutAdapter a;
  auto& sim = a.sim();
  rtl::Bus wide(&sim, sim.create_signal("wide", 65, rtl::Logic::L0));
  EXPECT_THROW(a.add_input(wide), castanet::LogicError);
  EXPECT_EQ(a.num_inputs(), 0u);
}

TEST(RtlDutAdapter, OutputWiderThan64Rejected) {
  RtlDutAdapter a;
  auto& sim = a.sim();
  rtl::Bus wide(&sim, sim.create_signal("wide", 72, rtl::Logic::L0));
  EXPECT_THROW(a.add_output(wide), castanet::LogicError);
  EXPECT_EQ(a.num_outputs(), 0u);
}

TEST(RtlDutAdapter, InputCountMismatchRejected) {
  AccumulatorDut dut;
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  EXPECT_THROW(dut.adapter.cycle({1}, {true}, out, en), castanet::LogicError);
}

}  // namespace
}  // namespace castanet::board
