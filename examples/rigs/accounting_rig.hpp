// The hardware-in-the-loop accounting rig of examples/board_in_the_loop,
// extracted so the example binary, the castanet_lint CLI and the lint
// clean-design tests elaborate the *same* three-backend setup: one
// testbench drives the RTL accounting unit under the HDL kernel (primary),
// the algorithm reference model, and the "fabricated" device on the
// hardware test board, each reading its counters back at the end of the
// run for the session comparator to cross-check.
//
// Construction order is load-bearing (see switch_rig.hpp): the HDL
// signals, clock, snoop port, driver, accounting unit and bus master
// elaborate in the example's original order, so process IDs and
// delta-cycle execution order are unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "src/castanet/backend.hpp"
#include "src/castanet/mapping.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/reference.hpp"
#include "src/netsim/simulation.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::rigs {

class AccountingRig {
 public:
  struct Params {
    /// Board test clock; at the device's rated 10 MHz the rig is clean, at
    /// 20 MHz the adapter injects setup violations unless gated down.
    std::uint64_t board_clock_hz = 10'000'000;
    /// Board clock gating factor (effective DUT clock = board clock / it).
    unsigned gating_factor = 1;
    /// The device's rated clock (adapter fault threshold).
    std::uint64_t rated_hz = 10'000'000;
    /// Adapter corruption period once overclocked (every Nth cell).
    std::uint64_t fault_period = 7;
    /// Wall-clock wait per board test cycle (the physical board replays
    /// stimulus in real time; see BoardBackend::Params).  Zero = no wait.
    std::chrono::microseconds board_real_time_per_test_cycle{0};
    SimTime clk_period = clock_period_hz(20'000'000);
    cosim::SyncPolicy policy = cosim::SyncPolicy::kGlobalOrder;
    /// Session parameters (transport, modeled IPC cost).
    cosim::VerificationSession::Params session;
  };

  AccountingRig();
  explicit AccountingRig(Params params);

  /// Records the example's stimulus: `cells` back-to-back CBR cells at the
  /// board's cell time.
  static traffic::CellTrace record_trace(std::size_t cells);

  /// Adds the trace generator and connects it to the gateway's stream 0.
  /// `trace` must outlive the run.
  void drive(const traffic::CellTrace& trace);

  /// Runs the coupled simulation to `limit` and finalizes the comparator.
  void run(SimTime limit);

  // --- the elaborated rig, exposed for stats and lint ---------------------
  Params p;
  netsim::Simulation net;
  netsim::Node& env;
  rtl::Simulator hdl;
  rtl::Signal clk;
  rtl::Signal rst;
  rtl::ClockGen clock;
  hw::CellPort snoop;
  hw::CellPortDriver driver;
  hw::AccountingUnit acct;
  cosim::BusMaster bus;
  cosim::RtlBackend rtl;
  hw::AccountingRef ref;
  cosim::ReferenceBackend refb;
  board::HardwareTestBoard board;
  cosim::AccountingBoardDut dut;
  std::unique_ptr<cosim::BoardBackend> brd;
  std::unique_ptr<cosim::VerificationSession> session;
};

}  // namespace castanet::rigs
