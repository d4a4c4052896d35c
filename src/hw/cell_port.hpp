// The serial cell interface of Fig. 4, at a lane width of 8, 16 or 32 bits:
//   atmdata : STD_LOGIC_VECTOR(8*lane_bytes-1 DOWNTO 0) — one lane word per
//             clock, octet 0 of the word in the low bits
//   cellsync: '1' during the first word of a cell
//   valid   : '1' while an assigned word is on the lane
// A cell occupies ceil(53 / lane_bytes) clocks (53, 27 or 14); the last
// word is zero-padded.  The helper classes drive and observe such a port
// from test benches and from the co-simulation entity, and read the lane
// width from the data bus they are handed.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/rtl/module.hpp"

namespace castanet::hw {

/// Signal bundle of one serial cell lane.
struct CellPort {
  rtl::Bus data;      ///< 8, 16 or 32 bits
  rtl::Signal sync;   ///< first-word marker
  rtl::Signal valid;  ///< word valid
};

/// Creates the three signals of a port with hierarchical names, with a data
/// bus of 8 * `lane_bytes` bits.  Throws LogicError unless `lane_bytes` is
/// 1, 2 or 4.
CellPort make_cell_port(rtl::Simulator& sim, const std::string& prefix,
                        std::size_t lane_bytes = 1);

/// Drives cells onto a CellPort, one lane word per rising clock edge, from a
/// software queue.  Gaps (no queued cell) drive valid='0'.  This is the
/// bit-level output half of the co-simulation entity's signal conditioning.
/// Throws LogicError at construction unless the data bus is 8, 16 or 32
/// bits wide.
class CellPortDriver : public rtl::Module {
 public:
  CellPortDriver(rtl::Simulator& sim, std::string name, rtl::Signal clk,
                 CellPort port);

  /// Enqueues a cell for transmission (takes clocks_per_cell() edges).
  void enqueue(const atm::Cell& c);
  /// Enqueues raw 53-byte data (how a test injects a corrupted HEC).
  void enqueue_bytes(const std::array<std::uint8_t, atm::kCellBytes>& bytes);
  bool idle() const { return buffer_.empty(); }
  std::uint64_t cells_driven() const { return cells_driven_; }
  /// Clocks one cell occupies on this lane: 53, 27 or 14.
  std::size_t clocks_per_cell() const { return clocks_per_cell_; }

 private:
  void on_clk();

  rtl::Signal clk_;
  CellPort port_;
  std::size_t lane_bytes_;
  std::size_t clocks_per_cell_;
  rtl::ProcessId pid_ = 0;           // for wake_process() from enqueue
  std::deque<std::uint8_t> buffer_;  // octets, each cell padded to words
  std::size_t phase_ = 0;            // word index within current cell
  std::uint64_t cells_driven_ = 0;
};

/// Observes a CellPort, reassembling lane words into cells; the input half
/// of the co-simulation entity (DUT responses back to the abstract level).
/// Cells with an uncorrectable HEC are counted and dropped.  Throws
/// LogicError at construction unless the data bus is 8, 16 or 32 bits wide.
class CellPortMonitor : public rtl::Module {
 public:
  using CellCallback = std::function<void(const atm::Cell&)>;

  CellPortMonitor(rtl::Simulator& sim, std::string name, rtl::Signal clk,
                  CellPort port);

  void set_callback(CellCallback cb) { callback_ = std::move(cb); }
  const std::vector<atm::Cell>& cells() const { return cells_; }
  std::uint64_t hec_discards() const { return hec_discards_; }
  std::uint64_t framing_errors() const { return framing_errors_; }

 private:
  void on_clk();

  rtl::Signal clk_;
  CellPort port_;
  std::size_t lane_bytes_;
  std::array<std::uint8_t, atm::kCellBytes> shift_{};
  std::size_t count_ = 0;  // octets of the current cell received so far
  std::vector<atm::Cell> cells_;
  CellCallback callback_;
  std::uint64_t hec_discards_ = 0;
  std::uint64_t framing_errors_ = 0;
};

}  // namespace castanet::hw
