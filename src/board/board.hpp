// The hardware test board (RAVEN, [16] in the paper).
//
// "The hardware test board consists of a control part and multiple memory
// units for intermediate data storage of test vectors.  It provides a bit
// stream interface and a clock interface to which the hardware device under
// test is connected. … The real-time verification process consists of
// repeated hardware activity cycles, interrupted by a software activity
// cycle" (§3.3).
//
// Flow per test cycle:
//   1. software activity: generate stimuli, configure the board, store
//      stimulus vectors into the lane memories (transfer modeled by the
//      ScsiChannel);
//   2. hardware activity: step the DUT `duration` clock cycles at real-time
//      speed, replaying stimulus lanes and capturing response lanes;
//   3. software activity: read the capture memories back.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/board/config.hpp"
#include "src/board/dut.hpp"
#include "src/board/scsi.hpp"

namespace castanet::board {

class HardwareTestBoard {
 public:
  /// Validates and installs the configuration data set; clears memories.
  /// The configuration upload itself costs one SCSI transfer.
  void configure(const ConfigDataSet& cfg);

  /// Loads per-cycle stimulus values for `inport` (index c = board cycle c).
  void load_stimulus(unsigned inport, std::vector<std::uint64_t> values);
  /// Loads per-cycle values for a control port, overriding its static
  /// write_value (used for per-cycle bus direction control).
  void load_ctrl(unsigned ctrlport, std::vector<std::uint64_t> values);

  /// Runs one hardware activity cycle of `duration` board clocks at
  /// `clock_hz` (<= 20 MHz and >= the gating factor; the DUT sees
  /// clock_hz / gating_factor).
  /// `duration` 0 derives the duration automatically from the longest
  /// loaded stimulus (§3.3's automatic calculation from control-port data).
  struct RunStats {
    std::uint64_t cycles = 0;
    SimTime sw_time;        ///< modeled software-activity time (SCSI + prep)
    SimTime hw_time;        ///< modeled hardware-activity time
    SimTime total() const { return sw_time + hw_time; }
  };
  RunStats run_test_cycle(BehavioralDut& dut, std::uint64_t duration = 0,
                          std::uint64_t clock_hz = kMaxBoardClockHz);

  /// Captured response of `outport`, one value per cycle of the last run;
  /// `enabled` tells whether the DUT actually drove the port that cycle.
  struct Capture {
    std::vector<std::uint64_t> values;
    std::vector<bool> enabled;
  };
  const Capture& response(unsigned outport) const;

  const ScsiChannel& scsi() const { return scsi_; }
  std::uint64_t test_cycles_run() const { return test_cycles_run_; }
  const ConfigDataSet& config() const { return cfg_; }

 private:
  std::uint64_t stimulus_length() const;

  ScsiChannel scsi_;
  ConfigDataSet cfg_;
  bool configured_ = false;
  std::unordered_map<unsigned, std::vector<std::uint64_t>> stimulus_;
  std::unordered_map<unsigned, std::vector<std::uint64_t>> ctrl_stimulus_;
  std::unordered_map<unsigned, Capture> captures_;
  std::uint64_t test_cycles_run_ = 0;
};

}  // namespace castanet::board
