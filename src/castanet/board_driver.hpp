// Functional chip verification path (§3.3): reusing the same abstract test
// patterns to stimulate the hardware device under test on the test board.
//
// BoardCellStream converts time-stamped cells into per-board-cycle pin
// stimulus (real-time: cell arrival times map to board clock cycles), chunks
// them into hardware test cycles and runs them through a HardwareTestBoard.
// The board's responses are register readbacks (board_bus_read), which feed
// the same comparator as the co-simulation path.
//
// build_accounting_dut() packages the RTL accounting unit as a board DUT
// with the pin-level port numbering the default configuration data set maps.
#pragma once

#include <memory>

#include "src/board/board.hpp"
#include "src/castanet/comparator.hpp"
#include "src/hw/accounting.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::cosim {

/// DUT port numbering convention for serial-cell devices on the board.
struct CellStreamPorts {
  // Inputs (tester -> DUT):
  static constexpr unsigned kDataIn = 0;   ///< 8-bit cell octet lane
  static constexpr unsigned kSyncIn = 1;   ///< first-octet marker
  static constexpr unsigned kValidIn = 2;  ///< octet valid
  static constexpr unsigned kAddr = 3;     ///< µP address, 8 bits
  static constexpr unsigned kBusIn = 4;    ///< µP data bus, tester->DUT
  static constexpr unsigned kCs = 5;
  static constexpr unsigned kRw = 6;
  // Outputs (DUT -> tester):
  static constexpr unsigned kBusOut = 0;   ///< µP data bus, DUT->tester
  // Control ports:
  static constexpr unsigned kBusDir = 0;   ///< 1 = DUT drives the bus
};

/// Configuration data set (Fig. 5) for a serial-cell DUT with a µP bus:
/// inports on lanes 0-5, the bidirectional data bus paired across lanes 3-4
/// (tester) / 6-7 (DUT) under control port 0.
board::ConfigDataSet make_cell_stream_config(unsigned gating_factor = 1);

/// The RTL accounting unit packaged as a board DUT.
struct AccountingBoardDut {
  std::unique_ptr<board::RtlDutAdapter> adapter;
  hw::AccountingUnit* unit = nullptr;  ///< owned by the adapter's simulator
};
AccountingBoardDut build_accounting_dut(std::size_t max_connections,
                                        std::uint64_t max_safe_hz = 0);

/// Replays time-stamped cells through the board in hardware test cycles.
class BoardCellStream {
 public:
  struct Params {
    std::uint64_t test_cycle_len = 4096;  ///< board cycles per HW activity
    std::uint64_t clock_hz = board::kMaxBoardClockHz;
  };

  BoardCellStream(board::HardwareTestBoard& board, Params p);

  /// Runs `cells` (arrival times quantized to board cycles) and returns the
  /// accumulated run statistics.
  struct Result {
    board::HardwareTestBoard::RunStats totals;
    std::uint64_t test_cycles = 0;
    std::uint64_t timing_violations = 0;
  };
  Result run(board::BehavioralDut& dut,
             const std::vector<traffic::CellArrival>& cells);

 private:
  board::HardwareTestBoard& board_;
  Params p_;
};

/// Executes one µP-bus register write through the board (one short test
/// cycle with the three-signal bus scheme: tester drives the data bus).
void board_bus_write(board::HardwareTestBoard& board,
                     board::BehavioralDut& dut, std::uint8_t addr,
                     std::uint16_t value,
                     std::uint64_t clock_hz = board::kMaxBoardClockHz);

/// Executes one µP-bus register read through the board: the direction
/// control port flips the bus to DUT-drive for the sampling cycles.
std::uint16_t board_bus_read(board::HardwareTestBoard& board,
                             board::BehavioralDut& dut, std::uint8_t addr,
                             std::uint64_t clock_hz = board::kMaxBoardClockHz);

}  // namespace castanet::cosim
