#include "src/castanet/board_driver.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

#include "src/hw/reference.hpp"
#include "src/traffic/sources.hpp"

namespace castanet::cosim {
namespace {

std::vector<traffic::CellArrival> cbr_cells(std::size_t n, SimTime period,
                                            std::uint16_t vci = 100) {
  traffic::CbrSource src({1, vci}, 1, period);
  std::vector<traffic::CellArrival> cells;
  for (std::size_t i = 0; i < n; ++i) cells.push_back(src.next());
  return cells;
}

struct BoardDriverTest : public ::testing::Test {
  board::HardwareTestBoard board;
  AccountingBoardDut dut = build_accounting_dut(8);

  void SetUp() override {
    board.configure(make_cell_stream_config());
    dut.unit->set_tariff(0, hw::Tariff{2, 1});
    dut.unit->bind_connection({1, 100}, 0, 0);
    dut.adapter->reset();
  }
};

TEST_F(BoardDriverTest, ConfigValidates) {
  EXPECT_NO_THROW(make_cell_stream_config().validate());
  EXPECT_NO_THROW(make_cell_stream_config(4).validate());
}

TEST_F(BoardDriverTest, CellsReachTheAccountingUnitThroughTheBoard) {
  BoardCellStream stream(board, {4096, board::kMaxBoardClockHz});
  // 20 cells back-to-back at the 53-cycle cell time of the board clock.
  const auto cells = cbr_cells(20, SimTime::from_ns(50 * 53));
  const auto result = stream.run(*dut.adapter, cells);
  EXPECT_EQ(dut.unit->count(0), 20u);
  EXPECT_EQ(dut.unit->rx().cells_accepted(), 20u);
  EXPECT_GE(result.test_cycles, 1u);
  EXPECT_EQ(result.timing_violations, 0u);
}

TEST_F(BoardDriverTest, ShortTestCyclesChunkCorrectly) {
  // Test cycle of 128 board clocks: a 20-cell run needs many HW cycles.
  BoardCellStream stream(board, {128, board::kMaxBoardClockHz});
  const auto cells = cbr_cells(20, SimTime::from_ns(50 * 53));
  const auto result = stream.run(*dut.adapter, cells);
  EXPECT_EQ(dut.unit->count(0), 20u);
  EXPECT_GT(result.test_cycles, 5u);
  // Software (SCSI) time dominates at short cycle lengths.
  EXPECT_GT(result.totals.sw_time, result.totals.hw_time);
}

TEST_F(BoardDriverTest, RegisterAccessOverBidirectionalBus) {
  BoardCellStream stream(board, {4096, board::kMaxBoardClockHz});
  stream.run(*dut.adapter, cbr_cells(7, SimTime::from_ns(50 * 53)));
  // Select connection 0 and read the counter through the board's I/O-port
  // mapping (three-signal bus scheme of §3.3).
  board_bus_write(board, *dut.adapter, 0x00, 0);
  EXPECT_EQ(board_bus_read(board, *dut.adapter, 0x01), 7u);
  EXPECT_EQ(board_bus_read(board, *dut.adapter, 0x04), 14u);  // charge 7*2
}

TEST_F(BoardDriverTest, MatchesReferenceModel) {
  hw::AccountingRef ref(8);
  ref.set_tariff(0, hw::Tariff{2, 1});
  ref.bind_connection({1, 100}, 0, 0);
  const auto cells = cbr_cells(15, SimTime::from_ns(50 * 60));
  for (const auto& a : cells) ref.observe(a.cell);

  BoardCellStream stream(board, {2048, board::kMaxBoardClockHz});
  stream.run(*dut.adapter, cells);
  ResponseComparator cmp;
  cmp.compare_value(0, ref.count(0), dut.unit->count(0), "count");
  cmp.compare_value(1, ref.charge(0), dut.unit->charge(0), "charge");
  cmp.finish();
  EXPECT_TRUE(cmp.clean()) << cmp.report();
}

TEST_F(BoardDriverTest, OverclockedDutShowsTimingViolations) {
  // §3.3's motivation: "As long as one does not run the hardware at the
  // targeted speed its behaviour can not be fully verified."  A DUT rated
  // for 10 MHz driven at 20 MHz exhibits violations the functional
  // simulation never showed.
  AccountingBoardDut slow = build_accounting_dut(8, /*max_safe_hz=*/10'000'000);
  // Dense fault period so setup failures land on header octets too.
  slow.adapter->set_max_safe_hz(10'000'000, /*fault_period=*/7);
  slow.unit->set_tariff(0, hw::Tariff{1, 0});
  slow.unit->bind_connection({1, 100}, 0, 0);
  slow.adapter->reset();

  BoardCellStream stream(board, {4096, board::kMaxBoardClockHz});
  const auto cells = cbr_cells(40, SimTime::from_ns(50 * 53));
  const auto result = stream.run(*slow.adapter, cells);
  // Every 7th of the run's 2,124 board cycles misses its inputs.
  EXPECT_EQ(result.timing_violations, 303u);
  // Corrupted octets break HEC/counting: the unit misses cells.
  EXPECT_EQ(slow.unit->count(0), 18u);

  // The same DUT within its rating is clean.
  AccountingBoardDut ok = build_accounting_dut(8, 10'000'000);
  ok.unit->set_tariff(0, hw::Tariff{1, 0});
  ok.unit->bind_connection({1, 100}, 0, 0);
  ok.adapter->reset();
  board::HardwareTestBoard board2;
  board2.configure(make_cell_stream_config());
  BoardCellStream stream2(board2, {4096, 10'000'000});
  stream2.run(*ok.adapter, cells);
  EXPECT_EQ(ok.unit->count(0), 40u);
}

TEST_F(BoardDriverTest, EmptyCellListIsNoop) {
  BoardCellStream stream(board, {1024, board::kMaxBoardClockHz});
  const auto result = stream.run(*dut.adapter, {});
  EXPECT_EQ(result.test_cycles, 0u);
}

TEST_F(BoardDriverTest, TestCycleShorterThanCellRejected) {
  EXPECT_THROW(BoardCellStream(board, {10, board::kMaxBoardClockHz}),
               castanet::LogicError);
}

}  // namespace
}  // namespace castanet::cosim
