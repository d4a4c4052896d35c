// Device-under-test models plugged into the hardware test board.
//
// The paper connects a fabricated prototype chip; we have no silicon, so a
// BehavioralDut is the substitution (documented in DESIGN.md): a model
// stepped one board clock at a time through plain port values.  The
// RtlDutAdapter wraps a module elaborated on a private rtl::Simulator, and —
// crucially — models the one property silicon has that functional simulation
// lacks (§3.3): above its rated clock frequency it exhibits *timing
// violations*, realized as periodic setup failures on its input registers.
// Real-time verification on the board therefore finds speed-dependent bugs
// a VHDL simulation run cannot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/rtl/module.hpp"

namespace castanet::board {

class BehavioralDut {
 public:
  virtual ~BehavioralDut() = default;

  virtual void reset() = 0;
  /// One DUT clock: `inputs[i]` is input port i's value this cycle;
  /// `input_enable[i]` false means the tester releases that port (high-Z) —
  /// the DUT-drive phase of a bidirectional bus.  Implementations fill
  /// `outputs[o]` and set `output_enable[o]` false where the DUT releases
  /// the port.
  virtual void cycle(const std::vector<std::uint64_t>& inputs,
                     const std::vector<bool>& input_enable,
                     std::vector<std::uint64_t>& outputs,
                     std::vector<bool>& output_enable) = 0;
  virtual std::size_t num_inputs() const = 0;
  virtual std::size_t num_outputs() const = 0;
};

/// Runs an RTL design as the board DUT.  The caller elaborates modules on
/// the adapter's simulator and registers the pin-level ports.
class RtlDutAdapter : public BehavioralDut {
 public:
  RtlDutAdapter();
  ~RtlDutAdapter() override;

  /// The private simulator to elaborate the design on (before first cycle).
  rtl::Simulator& sim() { return *sim_; }
  /// Takes ownership of an elaborated module (keeps it alive with the
  /// adapter; the simulator itself only holds signals and processes).
  template <typename T>
  T& own(std::unique_ptr<T> module) {
    T& ref = *module;
    owned_.push_back(std::move(module));
    return ref;
  }
  /// Clock/reset signals the adapter toggles; create and pass in.
  void set_clock(rtl::Signal clk) { clk_ = clk; }
  void set_reset(rtl::Signal rst) { rst_ = rst; }
  /// Registers input port i (order of calls defines the index); at most 64
  /// bits wide.  The adapter owns the pin's test-bench drive: cycle()
  /// re-drives the pin only when the wanted value, or the wanted release to
  /// all-'Z', differs from what its kExternalProcess driver slot holds.  So
  /// nothing else may write the pin from outside a process between cycles
  /// (a DUT process may drive it, as on a bidirectional bus).
  void add_input(rtl::Bus bus);
  /// Registers output port o; at most 64 bits wide.  cycle() reports its
  /// '1'/'H' bits as the value, and enable=false while it reads all-'Z'.
  void add_output(rtl::Bus bus);

  /// Rated maximum clock of the (virtual) silicon.  When the board steps the
  /// DUT faster than this, every `fault_period`-th cycle suffers a setup
  /// violation: the input registers keep their previous values.
  void set_max_safe_hz(std::uint64_t hz, std::uint64_t fault_period = 97);
  /// Clock the adapter is being stepped at (the board sets this).
  void set_actual_hz(std::uint64_t hz) { actual_hz_ = hz; }

  void reset() override;
  void cycle(const std::vector<std::uint64_t>& inputs,
             const std::vector<bool>& input_enable,
             std::vector<std::uint64_t>& outputs,
             std::vector<bool>& output_enable) override;
  std::size_t num_inputs() const override { return inputs_.size(); }
  std::size_t num_outputs() const override { return outputs_.size(); }

  std::uint64_t timing_violations() const { return timing_violations_; }
  std::uint64_t cycles() const { return cycle_count_; }

 private:
  /// A registered port and its all-'Z' value: the release an input pin is
  /// driven with, the "nobody drives" reading of an output pin.
  struct Pin {
    rtl::Bus bus;
    rtl::LogicVector all_z;
  };

  std::unique_ptr<rtl::Simulator> sim_;
  std::vector<std::unique_ptr<rtl::Module>> owned_;
  rtl::Signal clk_;
  rtl::Signal rst_;
  std::vector<Pin> inputs_;
  std::vector<Pin> outputs_;
  SimTime period_ = SimTime::from_ns(50);
  std::uint64_t max_safe_hz_ = 0;  ///< 0 = never violates
  std::uint64_t fault_period_ = 97;
  std::uint64_t actual_hz_ = kMaxBoardClockHzDefault;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t timing_violations_ = 0;

  static constexpr std::uint64_t kMaxBoardClockHzDefault = 20'000'000;

  void step_clock();
};

}  // namespace castanet::board
