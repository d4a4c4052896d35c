#include "src/hw/cell_port.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

#include "src/hw/cell_bits.hpp"
#include "tests/hw/hw_fixture.hpp"

namespace castanet::hw {
namespace {

using testing::ClockedTest;

atm::Cell test_cell(std::uint16_t vci, std::uint8_t fill = 0x11) {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

/// The lane words of one cell at `lane_bytes` octets per word: octet 0 in
/// the low bits, the last word zero-padded.
std::vector<std::uint64_t> lane_words(
    const std::array<std::uint8_t, atm::kCellBytes>& bytes,
    std::size_t lane_bytes) {
  std::vector<std::uint64_t> words(
      (atm::kCellBytes + lane_bytes - 1) / lane_bytes, 0);
  for (std::size_t j = 0; j < atm::kCellBytes; ++j) {
    words[j / lane_bytes] |= static_cast<std::uint64_t>(bytes[j])
                             << (8 * (j % lane_bytes));
  }
  return words;
}

/// Fig. 4 at every lane width: 8, 16 and 32 bits.
class LaneParamTest : public ClockedTest,
                      public ::testing::WithParamInterface<std::size_t> {
 protected:
  CellPort port = make_cell_port(sim, "lane", GetParam());
  CellPortMonitor monitor{sim, "mon", clk, port};
};

TEST_P(LaneParamTest, RoundTripAtEveryWidth) {
  EXPECT_EQ(port.data.width(), 8 * GetParam());
  CellPortDriver driver(sim, "drv", clk, port);
  for (std::uint16_t i = 0; i < 4; ++i) {
    driver.enqueue(test_cell(100 + i, static_cast<std::uint8_t>(i)));
  }
  run_cycles(4 * driver.clocks_per_cell() + 8);
  ASSERT_EQ(monitor.cells().size(), 4u);
  for (std::uint16_t i = 0; i < 4; ++i) {
    EXPECT_EQ(monitor.cells()[i],
              test_cell(100 + i, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(driver.cells_driven(), 4u);
  EXPECT_EQ(monitor.framing_errors(), 0u);
}

TEST_P(LaneParamTest, ClocksPerCellMatchesWidth) {
  CellPortDriver driver(sim, "drv", clk, port);
  const std::size_t clocks = GetParam() == 1 ? 53 : GetParam() == 2 ? 27 : 14;
  EXPECT_EQ(driver.clocks_per_cell(), clocks);
  driver.enqueue(test_cell(1));
  // The monitor samples each word one clock after the driver puts it on.
  run_cycles(clocks);
  EXPECT_TRUE(monitor.cells().empty());
  run_cycles(1);
  EXPECT_EQ(monitor.cells().size(), 1u);
}

TEST_P(LaneParamTest, GapsBetweenCellsHandled) {
  CellPortDriver driver(sim, "drv", clk, port);
  driver.enqueue(test_cell(1));
  run_cycles(100);  // drain plus idle gap
  driver.enqueue(test_cell(2));
  run_cycles(100);
  ASSERT_EQ(monitor.cells().size(), 2u);
  EXPECT_EQ(monitor.framing_errors(), 0u);
}

TEST_P(LaneParamTest, CallbackFiresPerCell) {
  CellPortDriver driver(sim, "drv", clk, port);
  int called = 0;
  monitor.set_callback([&](const atm::Cell&) { ++called; });
  driver.enqueue(test_cell(1));
  driver.enqueue(test_cell(2));
  run_cycles(120);
  EXPECT_EQ(called, 2);
}

TEST_P(LaneParamTest, CorruptedHecCountedNotDelivered) {
  CellPortDriver driver(sim, "drv", clk, port);
  auto bytes = test_cell(7).to_bytes();
  bytes[2] ^= 0xFF;  // multi-bit header corruption
  driver.enqueue_bytes(bytes);
  driver.enqueue(test_cell(8));
  run_cycles(120);
  EXPECT_EQ(monitor.hec_discards(), 1u);
  ASSERT_EQ(monitor.cells().size(), 1u);
  EXPECT_EQ(monitor.cells()[0].header.vci, 8);
}

TEST_P(LaneParamTest, MidCellResyncCountedAsFramingError) {
  // A scripted lane: the first half of one cell, then a whole second cell
  // whose sync arrives while the first is still incomplete.
  std::vector<std::uint64_t> words =
      lane_words(test_cell(1).to_bytes(), GetParam());
  const std::size_t cut = words.size() / 2;
  words.resize(cut);
  const auto whole = lane_words(test_cell(2, 0x5A).to_bytes(), GetParam());
  words.insert(words.end(), whole.begin(), whole.end());
  std::size_t next = 0;
  sim.add_clocked_process("script", clk.id(), [&] {
    const bool valid = next < words.size();
    if (valid) port.data.write_uint(words[next]);
    port.valid.write(valid ? rtl::Logic::L1 : rtl::Logic::L0);
    port.sync.write(valid && (next == 0 || next == cut) ? rtl::Logic::L1
                                                         : rtl::Logic::L0);
    if (valid) ++next;
  });
  run_cycles(words.size() + 4);
  EXPECT_EQ(monitor.framing_errors(), 1u);
  ASSERT_EQ(monitor.cells().size(), 1u);
  EXPECT_EQ(monitor.cells()[0], test_cell(2, 0x5A));
}

INSTANTIATE_TEST_SUITE_P(LaneWidths, LaneParamTest,
                         ::testing::Values(1, 2, 4));

TEST(CellPortWidth, LaneWidthMismatchRejected) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  EXPECT_THROW(make_cell_port(sim, "three", 3), castanet::LogicError);
  for (std::size_t bits : {12, 24, 64}) {
    const std::string name = "p" + std::to_string(bits);
    CellPort port;
    port.data = rtl::Bus(&sim, sim.create_signal(name + ".data", bits));
    port.sync = rtl::Signal(&sim, sim.create_signal(name + ".sync", 1));
    port.valid = rtl::Signal(&sim, sim.create_signal(name + ".valid", 1));
    EXPECT_THROW(CellPortDriver(sim, name + ".drv", clk, port),
                 castanet::LogicError)
        << bits << " bits";
    EXPECT_THROW(CellPortMonitor(sim, name + ".mon", clk, port),
                 castanet::LogicError)
        << bits << " bits";
  }
}

TEST(CellBits, CellVectorRoundTrip) {
  atm::Cell c = test_cell(999, 0xAB);
  const rtl::LogicVector v = cell_to_bits(c);
  EXPECT_EQ(v.width(), kCellBits);
  EXPECT_EQ(bits_to_cell(v), c);
}

TEST(CellBits, ByteLayoutMatchesSerialOrder) {
  atm::Cell c = test_cell(5);
  const auto bytes = c.to_bytes();
  const rtl::LogicVector v = cell_to_bits(c);
  for (std::size_t j = 0; j < atm::kCellBytes; ++j) {
    EXPECT_EQ(v.slice(8 * j, 8).to_uint(), bytes[j]) << "byte " << j;
  }
}

TEST(CellBits, UndefinedBitsRejected) {
  rtl::LogicVector v(kCellBits, rtl::Logic::L0);
  v.set_bit(100, rtl::Logic::X);
  EXPECT_THROW(bits_to_cell(v), castanet::LogicError);
}

TEST(CellBits, WrongWidthRejected) {
  EXPECT_THROW(bits_to_cell(rtl::LogicVector(100, rtl::Logic::L0)),
               castanet::LogicError);
}

}  // namespace
}  // namespace castanet::hw
