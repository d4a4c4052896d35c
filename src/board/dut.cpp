#include "src/board/dut.hpp"

#include "src/core/error.hpp"

namespace castanet::board {

RtlDutAdapter::RtlDutAdapter() : sim_(std::make_unique<rtl::Simulator>()) {}
RtlDutAdapter::~RtlDutAdapter() = default;

void RtlDutAdapter::add_input(rtl::Bus bus) {
  require(bus.valid(), "RtlDutAdapter::add_input: invalid bus");
  require(bus.width() <= 64, "RtlDutAdapter::add_input: bus wider than 64");
  inputs_.push_back({bus, rtl::LogicVector(bus.width(), rtl::Logic::Z)});
}

void RtlDutAdapter::add_output(rtl::Bus bus) {
  require(bus.valid(), "RtlDutAdapter::add_output: invalid bus");
  require(bus.width() <= 64, "RtlDutAdapter::add_output: bus wider than 64");
  outputs_.push_back({bus, rtl::LogicVector(bus.width(), rtl::Logic::Z)});
}

void RtlDutAdapter::set_max_safe_hz(std::uint64_t hz,
                                    std::uint64_t fault_period) {
  require(fault_period > 0, "RtlDutAdapter: fault period must be > 0");
  max_safe_hz_ = hz;
  fault_period_ = fault_period;
}

void RtlDutAdapter::step_clock() {
  // Two half-periods per cycle; the concrete period only spaces events on
  // the adapter's private time axis.
  clk_.write(rtl::Logic::L1);
  sim_->run_until(sim_->now() + SimTime::from_ps(period_.ps() / 2));
  clk_.write(rtl::Logic::L0);
  sim_->run_until(sim_->now() + SimTime::from_ps(period_.ps() / 2));
}

void RtlDutAdapter::reset() {
  require(clk_.valid(), "RtlDutAdapter: clock not set");
  if (rst_.valid()) {
    rst_.write(rtl::Logic::L1);
    step_clock();
    step_clock();
    rst_.write(rtl::Logic::L0);
    step_clock();
  }
  cycle_count_ = 0;
  timing_violations_ = 0;
}

void RtlDutAdapter::cycle(const std::vector<std::uint64_t>& inputs,
                          const std::vector<bool>& input_enable,
                          std::vector<std::uint64_t>& outputs,
                          std::vector<bool>& output_enable) {
  require(inputs.size() == inputs_.size() &&
              input_enable.size() == inputs_.size(),
          "RtlDutAdapter::cycle: input count mismatch");
  ++cycle_count_;

  const bool violate = max_safe_hz_ != 0 && actual_hz_ > max_safe_hz_ &&
                       cycle_count_ % fault_period_ == 0;
  if (violate) {
    // Setup violation: the input registers miss this cycle's new values and
    // keep sampling the previous ones — inputs are simply not applied.
    ++timing_violations_;
  } else {
    // The kernel stages every test-bench write, even one that changes
    // nothing, so a pin whose driver slot already holds the wanted drive is
    // left alone.  A pin a violated cycle skipped still holds the older
    // value and is re-driven here.
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Pin& pin = inputs_[i];
      const rtl::LogicVector* held =
          sim_->driver_value(pin.bus.id(), rtl::kExternalProcess);
      if (input_enable[i]) {
        if (held == nullptr || !held->equals_uint(inputs[i])) {
          pin.bus.write_uint(inputs[i]);
        }
      } else if (held == nullptr || *held != pin.all_z) {
        pin.bus.write(pin.all_z);
      }
    }
  }
  step_clock();

  outputs.resize(outputs_.size());
  output_enable.resize(outputs_.size());
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    const rtl::LogicVector& v = outputs_[o].bus.read();
    outputs[o] = v.bool_word(0);
    output_enable[o] = v != outputs_[o].all_z;
  }
}

}  // namespace castanet::board
