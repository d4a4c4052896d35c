#include "src/castanet/mapping.hpp"

#include <gtest/gtest.h>

#include "tests/hw/hw_fixture.hpp"

namespace castanet::cosim {
namespace {

using hw::testing::ClockedTest;

// --- BusMaster against a simple register-file slave --------------------------

class BusSlave : public rtl::Module {
 public:
  BusSlave(rtl::Simulator& sim, rtl::Signal clk, rtl::Bus addr, rtl::Bus data,
           rtl::Signal cs, rtl::Signal rw)
      : Module(sim, "slave"), clk_(clk), addr_(addr), data_(data), cs_(cs),
        rw_(rw) {
    regs_.fill(0);
    data_.release();
    clocked("slave", clk_, [this] { on_clk(); });
  }
  std::array<std::uint16_t, 16> regs_;

 private:
  void on_clk() {
    if (!cs_.read_bool()) {
      data_.release();
      return;
    }
    const auto a = static_cast<std::size_t>(addr_.read_uint() & 0xF);
    if (rw_.read_bool()) {
      data_.write_uint(regs_[a]);
    } else {
      data_.release();
      const auto& v = data_.read();
      if (v.is_defined()) regs_[a] = static_cast<std::uint16_t>(v.to_uint());
    }
  }

  rtl::Signal clk_;
  rtl::Bus addr_;
  rtl::Bus data_;
  rtl::Signal cs_;
  rtl::Signal rw_;
};

class BusMasterTest : public ClockedTest {
 protected:
  rtl::Bus addr{&sim, sim.create_signal("addr", 8, rtl::Logic::L0)};
  rtl::Bus data{&sim, sim.create_signal("data", 16, rtl::Logic::Z)};
  rtl::Signal cs{&sim, sim.create_signal("cs", 1, rtl::Logic::L0)};
  rtl::Signal rw{&sim, sim.create_signal("rw", 1, rtl::Logic::L1)};
  BusSlave slave{sim, clk, addr, data, cs, rw};
  BusMaster master{sim, "master", clk, addr, data, cs, rw};

  void drain() {
    for (int i = 0; i < 200 && !master.idle(); ++i) run_cycles(1);
    run_cycles(2);
  }
};

TEST_F(BusMasterTest, WriteReachesSlaveRegister) {
  master.write(0x3, 0xBEEF);
  drain();
  EXPECT_EQ(slave.regs_[3], 0xBEEF);
  EXPECT_EQ(master.transactions(), 1u);
}

TEST_F(BusMasterTest, ReadReturnsSlaveValue) {
  slave.regs_[7] = 0x1234;
  std::uint16_t got = 0;
  master.read(0x7, [&](std::uint16_t v) { got = v; });
  drain();
  EXPECT_EQ(got, 0x1234);
}

TEST_F(BusMasterTest, WriteThenReadRoundTrip) {
  std::uint16_t got = 0;
  master.write(0x5, 0xCAFE);
  master.read(0x5, [&](std::uint16_t v) { got = v; });
  drain();
  EXPECT_EQ(got, 0xCAFE);
}

TEST_F(BusMasterTest, BackToBackTransactionsNoBusFight) {
  // Alternating reads and writes must never produce X on the bus (observed
  // via the slave's register integrity).
  for (std::uint16_t i = 0; i < 8; ++i) {
    master.write(static_cast<std::uint8_t>(i), static_cast<std::uint16_t>(
                                                   0x100 + i));
  }
  std::vector<std::uint16_t> got(8, 0);
  for (std::uint16_t i = 0; i < 8; ++i) {
    master.read(static_cast<std::uint8_t>(i),
                [&got, i](std::uint16_t v) { got[i] = v; });
  }
  drain();
  for (std::uint16_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], 0x100 + i) << "reg " << i;
  }
  EXPECT_EQ(master.transactions(), 16u);
}

TEST_F(BusMasterTest, BusIdleBetweenOps) {
  master.write(0x1, 1);
  drain();
  EXPECT_FALSE(cs.read_bool());
  EXPECT_EQ(data.read().to_string(), std::string(16, 'Z'));
}

}  // namespace
}  // namespace castanet::cosim
