#include "src/board/board.hpp"

#include <algorithm>

#include "src/core/error.hpp"

namespace castanet::board {

namespace {

/// One port's half of an I/O-port pairing, resolved for one test cycle;
/// `io` is nullptr for a port that is not a bus half.
struct BusControl {
  const IoPortMapping* io = nullptr;
  /// The control port's loaded per-cycle values, nullptr if none.
  const std::vector<std::uint64_t>* loaded = nullptr;
  /// Its static write value, used past the end of `loaded`.
  std::uint64_t write_value = 0;
  /// True when the control port holds the "DUT drives" flag in cycle c.
  bool dut_drives(std::uint64_t c) const {
    const std::uint64_t v =
        loaded != nullptr && c < loaded->size() ? (*loaded)[c] : write_value;
    return v == io->dut_drives_value;
  }
};

struct InportView {
  unsigned port;
  const std::vector<std::uint64_t>* stimulus;  ///< nullptr: drives 0
  BusControl bus;
};

struct OutportView {
  unsigned port;
  HardwareTestBoard::Capture* capture;
  BusControl bus;
};

}  // namespace

HardwareTestBoard::HardwareTestBoard(ScsiChannel::Params scsi)
    : scsi_(scsi) {}

void HardwareTestBoard::configure(const ConfigDataSet& cfg) {
  cfg.validate();
  cfg_ = cfg;
  configured_ = true;
  stimulus_.clear();
  ctrl_stimulus_.clear();
  captures_.clear();
  // Uploading the configuration data set costs a (small) SCSI transfer.
  const std::uint64_t cfg_bytes =
      16 * (cfg.inports.size() + cfg.outports.size() + cfg.ctrlports.size() +
            cfg.ioports.size());
  scsi_.transfer(cfg_bytes);
}

void HardwareTestBoard::load_stimulus(unsigned inport,
                                      std::vector<std::uint64_t> values) {
  require(configured_, "board: configure() before load_stimulus()");
  const bool known = std::any_of(
      cfg_.inports.begin(), cfg_.inports.end(),
      [&](const InportMapping& m) { return m.inport == inport; });
  if (!known) {
    throw ConfigError("load_stimulus: inport " + std::to_string(inport) +
                      " not in configuration data set");
  }
  if (values.size() > kMaxTestCycle) {
    throw ConfigError("load_stimulus: exceeds vector memory depth");
  }
  stimulus_[inport] = std::move(values);
}

void HardwareTestBoard::load_ctrl(unsigned ctrlport,
                                  std::vector<std::uint64_t> values) {
  require(configured_, "board: configure() before load_ctrl()");
  const bool known = std::any_of(
      cfg_.ctrlports.begin(), cfg_.ctrlports.end(),
      [&](const CtrlportMapping& m) { return m.ctrlport == ctrlport; });
  if (!known) {
    throw ConfigError("load_ctrl: ctrlport " + std::to_string(ctrlport) +
                      " not in configuration data set");
  }
  if (values.size() > kMaxTestCycle) {
    throw ConfigError("load_ctrl: exceeds vector memory depth");
  }
  ctrl_stimulus_[ctrlport] = std::move(values);
}

std::uint64_t HardwareTestBoard::stimulus_length() const {
  std::uint64_t n = 0;
  for (const auto& [port, v] : stimulus_) {
    n = std::max<std::uint64_t>(n, v.size());
  }
  for (const auto& [port, v] : ctrl_stimulus_) {
    n = std::max<std::uint64_t>(n, v.size());
  }
  return n;
}

HardwareTestBoard::RunStats HardwareTestBoard::run_test_cycle(
    BehavioralDut& dut, std::uint64_t duration, std::uint64_t clock_hz) {
  require(configured_, "board: configure() before run_test_cycle()");
  if (clock_hz == 0 || clock_hz > kMaxBoardClockHz) {
    throw ConfigError("board: clock beyond the 20 MHz board maximum");
  }
  if (duration == 0) duration = stimulus_length();
  if (duration == 0 || duration > kMaxTestCycle) {
    throw ConfigError("board: test cycle duration must be in 1.." +
                      std::to_string(kMaxTestCycle));
  }
  require(dut.num_inputs() >= cfg_.inports.size() &&
              dut.num_outputs() >= cfg_.outports.size(),
          "board: DUT has fewer ports than the configuration maps");

  RunStats stats;
  stats.cycles = duration;

  // --- software activity: store stimuli into the board memories ----------
  std::uint64_t stim_bytes = 0;
  for (const auto& [port, v] : stimulus_) stim_bytes += v.size() * 8;
  for (const auto& [port, v] : ctrl_stimulus_) stim_bytes += v.size() * 8;
  stats.sw_time += scsi_.transfer(stim_bytes);

  // Per-test-cycle port views: every lookup by port number happens here,
  // once, so a board cycle only indexes vectors.
  const auto paired = [&](unsigned IoPortMapping::*side, unsigned port) {
    BusControl bus;
    for (const IoPortMapping& io : cfg_.ioports) {
      if (io.*side == port) bus.io = &io;  // the last pairing wins
    }
    if (bus.io == nullptr) return bus;
    for (const CtrlportMapping& m : cfg_.ctrlports) {
      if (m.ctrlport == bus.io->ctrlport) bus.write_value = m.write_value;
    }
    if (auto it = ctrl_stimulus_.find(bus.io->ctrlport);
        it != ctrl_stimulus_.end()) {
      bus.loaded = &it->second;
    }
    return bus;
  };
  std::vector<std::uint64_t> in_vals(dut.num_inputs(), 0);
  std::vector<bool> in_en(dut.num_inputs(), true);
  std::vector<InportView> inports;
  inports.reserve(cfg_.inports.size());
  for (const InportMapping& m : cfg_.inports) {
    if (m.inport >= in_vals.size()) {
      throw LogicError("board: inport " + std::to_string(m.inport) +
                       " is beyond the DUT's inputs");
    }
    auto it = stimulus_.find(m.inport);
    inports.push_back({m.inport,
                       it != stimulus_.end() ? &it->second : nullptr,
                       paired(&IoPortMapping::inport, m.inport)});
  }
  std::vector<OutportView> outports;
  outports.reserve(cfg_.outports.size());
  for (auto& [port, cap] : captures_) {
    cap.values.clear();
    cap.enabled.clear();
  }
  for (const OutportMapping& m : cfg_.outports) {
    Capture& cap = captures_[m.outport];
    cap.values.reserve(duration);
    cap.enabled.reserve(duration);
    outports.push_back(
        {m.outport, &cap, paired(&IoPortMapping::outport, m.outport)});
  }

  // --- hardware activity: real-time replay -------------------------------
  const std::uint64_t dut_hz = clock_hz / cfg_.gating_factor;
  if (auto* rtl_dut = dynamic_cast<RtlDutAdapter*>(&dut)) {
    rtl_dut->set_actual_hz(dut_hz);
  }
  std::vector<std::uint64_t> out_vals;
  std::vector<bool> out_en;
  for (std::uint64_t c = 0; c < duration; ++c) {
    for (const InportView& in : inports) {
      in_vals[in.port] = in.stimulus != nullptr && c < in.stimulus->size()
                             ? (*in.stimulus)[c]
                             : 0;
      // Tester releases the shared bus while the DUT drives it.
      in_en[in.port] = in.bus.io == nullptr || !in.bus.dut_drives(c);
    }
    dut.cycle(in_vals, in_en, out_vals, out_en);
    for (const OutportView& out : outports) {
      // Tester-drive phase of a bus: nothing to capture.
      const bool enabled = out.port < out_en.size() && out_en[out.port] &&
                           (out.bus.io == nullptr || out.bus.dut_drives(c));
      out.capture->values.push_back(
          out.port < out_vals.size() ? out_vals[out.port] : 0);
      out.capture->enabled.push_back(enabled);
    }
  }
  stats.hw_time = SimTime::from_ps(static_cast<std::int64_t>(
      static_cast<double>(duration) / static_cast<double>(dut_hz) * 1e12));

  // --- software activity: read responses back ----------------------------
  const std::uint64_t resp_bytes = duration * 8 * cfg_.outports.size();
  stats.sw_time += scsi_.transfer(resp_bytes);

  ++test_cycles_run_;
  return stats;
}

const HardwareTestBoard::Capture& HardwareTestBoard::response(
    unsigned outport) const {
  auto it = captures_.find(outport);
  if (it == captures_.end()) {
    throw LogicError("board: no capture for outport " +
                     std::to_string(outport));
  }
  return it->second;
}

}  // namespace castanet::board
