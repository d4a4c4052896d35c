// Configuration data set of the hardware test board (Fig. 5).
//
// The board exposes a bit-stream interface of 128 I/O pins organized as 16
// byte lanes, each configurable in direction and speed (§3.3 — the paper's
// scan shows garbled numerals; we use 128 pins / 16 lanes, consistent with
// the figure's "byte lane 16").  The configuration data set collects, per
// logical DUT port, the byte-lane ID, start bit position and number of bits,
// from which the board derives the input-port, output-port, I/O-port and
// control-port mappings automatically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace castanet::board {

constexpr std::size_t kByteLanes = 16;
constexpr std::size_t kPinsPerLane = 8;
constexpr std::size_t kPins = kByteLanes * kPinsPerLane;  // 128
/// Test cycle durations supported by the vector memories (§3.3: "between 1
/// and 2^20 clock cycles" in our reading of the scan).
constexpr std::uint64_t kMaxTestCycle = 1u << 20;
/// Maximum board clock (§3.3: 20 MHz).
constexpr std::uint64_t kMaxBoardClockHz = 20'000'000;

/// A contiguous run of bits on one byte lane.
struct LaneSlice {
  std::uint8_t byte_lane = 0;  ///< 0..15
  std::uint8_t start_bit = 0;  ///< 0..7, LSB of the slice within the lane
  std::uint8_t nbits = 0;      ///< 1..8
};

/// Stimulus port: tester drives the DUT.
struct InportMapping {
  unsigned inport = 0;           ///< logical DUT input port number
  unsigned width = 0;            ///< total bits; sum of slice widths
  std::vector<LaneSlice> slices; ///< LSB-first
};

/// Response port: DUT drives the tester.
struct OutportMapping {
  unsigned outport = 0;
  unsigned width = 0;
  std::vector<LaneSlice> slices;
};

/// Control port: a tester-driven pin group with a fixed per-test-cycle
/// write value (Fig. 5 "Ctrlport-Mappings: Ctrlport-Number, Write-Value").
/// Used for direction control of I/O ports and for run-length signalling.
struct CtrlportMapping {
  unsigned ctrlport = 0;
  unsigned width = 1;
  std::vector<LaneSlice> slices;
  std::uint64_t write_value = 0;
};

/// Bidirectional bus port: "bus interfaces need to be modeled by three
/// bit-level signals input, output and a control signal indicating the
/// direction through predefined read/write flags" (§3.3).
struct IoPortMapping {
  unsigned inport = 0;    ///< tester->DUT data path
  unsigned outport = 0;   ///< DUT->tester data path
  unsigned ctrlport = 0;  ///< direction control
  unsigned width = 0;
  /// Ctrl-port value meaning "DUT drives" (read flag); anything else means
  /// the tester drives.
  std::uint64_t dut_drives_value = 1;
};

/// One violation of the board rules (the BRD-* rules of castanet-lint,
/// DESIGN.md §10.2).
struct ConfigFinding {
  std::string rule;   ///< stable rule ID, e.g. "BRD-PIN-OVERLAP"
  std::string port;   ///< "inport 3", "ioport #0", or "config"
  /// Index into the port's slices, for BRD-LANE-RANGE and BRD-PIN-OVERLAP.
  std::optional<std::size_t> slice;
  std::string message;
  std::string fix_hint;
};

struct ConfigDataSet {
  std::vector<InportMapping> inports;
  std::vector<OutportMapping> outports;
  std::vector<CtrlportMapping> ctrlports;
  std::vector<IoPortMapping> ioports;

  /// Board clock divider (clock gating factor, §3.3): effective DUT clock =
  /// board clock / gating_factor.
  unsigned gating_factor = 1;

  /// Every board-rule violation: gating factor, width against slices, the
  /// 64-bit port limit (a port value is one uint64_t), lane range, pin
  /// overlap (slices of the same drive direction must not share a pin;
  /// opposite directions may, which is how an I/O port pairs its halves),
  /// the ctrl write value, duplicate port IDs, and I/O-port references,
  /// widths, direction flags and shared bus halves (an inport or outport
  /// paired by two ioports).  Empty for a valid configuration.
  std::vector<ConfigFinding> findings() const;

  /// Throws ConfigError naming the first of findings(), if any.
  void validate() const;
};

/// Packs `value` into `lane_bytes` (one byte per lane) per the slices,
/// which cover at most 64 bits (a port validate() accepts).
void pack_slices(const std::vector<LaneSlice>& slices, std::uint64_t value,
                 std::uint8_t lane_bytes[kByteLanes]);
/// Extracts the port value from lane bytes per the slices.
std::uint64_t unpack_slices(const std::vector<LaneSlice>& slices,
                            const std::uint8_t lane_bytes[kByteLanes]);

}  // namespace castanet::board
