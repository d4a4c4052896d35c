// The 4-port ATM switch co-verification rig of examples/switch_coverify,
// extracted so the example binary, the castanet_lint CLI and the lint
// clean-design tests elaborate the *same* setup: mixed recorded traffic
// drives the RTL switch under the HDL kernel (primary backend) and the
// algorithm reference model through one VerificationSession, with the
// session comparator cross-checking the two per output stream.
//
// Construction order is load-bearing: signals, the clock generator, the
// switch, then the port drivers/monitors interleaved per port, then the
// backends — exactly the order the example always used, so process IDs and
// therefore delta-cycle execution order (and the bit-identical VCD/compare
// results) are unchanged.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/atm_switch.hpp"
#include "src/hw/reference.hpp"
#include "src/netsim/simulation.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::rigs {

class SwitchRig {
 public:
  static constexpr std::size_t kPorts = 4;

  struct Params {
    SimTime clk_period = clock_period_hz(20'000'000);
    cosim::SyncPolicy policy = cosim::SyncPolicy::kGlobalOrder;
    /// Session parameters (transport, modeled IPC cost).
    cosim::VerificationSession::Params session;
  };

  SwitchRig();
  explicit SwitchRig(Params params);

  /// Records the example's four stimulus traces (CBR trunk, Poisson
  /// aggregate, bursty on/off source, offset CBR), `cells_per_source`
  /// cells each, from the fixed seed.
  static std::vector<traffic::CellTrace> record_traces(
      std::size_t cells_per_source);
  /// Latest arrival time across `traces` (zero when all are empty).
  static SimTime horizon(const std::vector<traffic::CellTrace>& traces);

  /// Adds one trace generator per port and connects it to the gateway.
  /// `traces` must have kPorts entries and outlive the run.
  void drive(const std::vector<traffic::CellTrace>& traces);

  /// Runs the coupled simulation to `limit` and finalizes the comparator.
  void run(SimTime limit);

  // --- the elaborated rig, exposed for waveforms, stats and lint ----------
  Params p;
  netsim::Simulation net;
  netsim::Node& env;
  rtl::Simulator hdl;
  rtl::Signal clk;
  rtl::Signal rst;
  rtl::ClockGen clock;
  hw::AtmSwitch sw;
  struct Ports {
    std::vector<std::unique_ptr<hw::CellPortDriver>> drivers;
    std::vector<std::unique_ptr<hw::CellPortMonitor>> monitors;
  };
  Ports ports;
  hw::SwitchRef ref;
  cosim::RtlBackend rtl;
  cosim::ReferenceBackend refb;
  cosim::VerificationSession session;
};

}  // namespace castanet::rigs
