// End-to-end co-verification flows (Fig. 1 complete): the same reused test
// bench drives (a) the algorithm reference model, (b) the RTL DUT through
// the simulator coupling, and (c) the "fabricated" DUT on the hardware test
// board — and the comparator checks all three agree, except when a fault is
// deliberately injected.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/castanet/board_driver.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/reference.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/trace.hpp"

namespace castanet {
namespace {

using cosim::SyncPolicy;
using cosim::TimedMessage;

constexpr SimTime kClk = SimTime::from_ns(50);

/// Co-simulation rig with the RTL accounting unit as DUT.
struct AccountingCosim {
  netsim::Simulation net;
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClk};
  hw::CellPort snoop = hw::make_cell_port(hdl, "snoop");
  hw::CellPortDriver driver{hdl, "drv", clk, snoop};
  hw::AccountingUnit acct{hdl, "acct", clk, rst, snoop, 8};
  netsim::Node& env = net.add_node("env");
  cosim::RtlBackend rtl;
  cosim::VerificationSession session;

  explicit AccountingCosim(const traffic::CellTrace& trace)
      : rtl("rtl", hdl, sync_params()),
        session(net, env, 1, cosim::VerificationSession::Params{}) {
    session.attach(rtl);
    acct.set_tariff(0, hw::Tariff{3, 1});
    acct.bind_connection({1, 100}, 0, 0);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen", std::make_unique<traffic::TraceSource>(trace), trace.size());
    net.connect(gen, 0, session.gateway(), 0);
    // The accounting unit produces no cell stream; suppress responses.
    session.set_response_handler([](const TimedMessage&) {});
    rtl.entity().register_input(0, 53, [this](const TimedMessage& m) {
      driver.enqueue(*m.cell);
    });
  }

  static cosim::ConservativeSync::Params sync_params() {
    cosim::ConservativeSync::Params p;
    p.policy = SyncPolicy::kGlobalOrder;
    p.clock_period = kClk;
    return p;
  }
};

traffic::CellTrace accounting_trace(std::size_t n) {
  // CBR with CLP mix on VC 1/100, slow enough for the 20 MHz serial lane.
  traffic::CbrSource src({1, 100}, 1, SimTime::from_us(5));
  traffic::CellTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    traffic::CellArrival a = src.next();
    a.cell.header.clp = i % 3 == 0;
    t.append(a);
  }
  return t;
}

TEST(EndToEnd, CosimDutMatchesReferenceModel) {
  const traffic::CellTrace trace = accounting_trace(30);

  // Reference model consumes the abstract trace directly.
  hw::AccountingRef ref(8);
  ref.set_tariff(0, hw::Tariff{3, 1});
  ref.bind_connection({1, 100}, 0, 0);
  for (const auto& a : trace.arrivals()) ref.observe(a.cell);

  // RTL DUT consumes it through the simulator coupling.
  AccountingCosim rig(trace);
  rig.session.run_until(SimTime::from_us(5 * 30 + 100));

  cosim::ResponseComparator cmp;
  cmp.compare_value(0, ref.count(0), rig.acct.count(0), "count");
  cmp.compare_value(1, ref.clp1_count(0), rig.acct.clp1_count(0), "clp1");
  cmp.compare_value(2, ref.charge(0), rig.acct.charge(0), "charge");
  cmp.finish();
  EXPECT_TRUE(cmp.clean()) << cmp.report();
  EXPECT_EQ(rig.session.stats().backends[0].causality_errors, 0u);
}

TEST(EndToEnd, InjectedRtlFaultIsDetectedBySystemLevelComparison) {
  const traffic::CellTrace trace = accounting_trace(30);
  hw::AccountingRef ref(8);
  ref.set_tariff(0, hw::Tariff{3, 1});
  ref.bind_connection({1, 100}, 0, 0);
  for (const auto& a : trace.arrivals()) ref.observe(a.cell);

  AccountingCosim rig(trace);
  rig.acct.set_fault(hw::AccountingFault::kIgnoreClp1);
  rig.session.run_until(SimTime::from_us(5 * 30 + 100));

  cosim::ResponseComparator cmp;
  cmp.compare_value(0, ref.count(0), rig.acct.count(0), "count");
  cmp.compare_value(1, ref.clp1_count(0), rig.acct.clp1_count(0), "clp1");
  cmp.finish();
  EXPECT_FALSE(cmp.clean());  // the bug must surface as a mismatch
}

TEST(EndToEnd, SameTraceOnBoardAgreesWithCosim) {
  // Test-bench reuse across verification levels: identical stimulus through
  // the VHDL-simulator path and the hardware-test-board path must yield
  // identical accounting state.
  const traffic::CellTrace trace = accounting_trace(25);

  AccountingCosim rig(trace);
  rig.session.run_until(SimTime::from_us(5 * 25 + 100));

  board::HardwareTestBoard board;
  board.configure(cosim::make_cell_stream_config());
  cosim::AccountingBoardDut dut = cosim::build_accounting_dut(8);
  dut.unit->set_tariff(0, hw::Tariff{3, 1});
  dut.unit->bind_connection({1, 100}, 0, 0);
  dut.adapter->reset();
  cosim::BoardCellStream stream(board, {4096, board::kMaxBoardClockHz});
  stream.run(*dut.adapter, trace.arrivals());

  EXPECT_EQ(rig.acct.count(0), dut.unit->count(0));
  EXPECT_EQ(rig.acct.clp1_count(0), dut.unit->clp1_count(0));
  EXPECT_EQ(rig.acct.charge(0), dut.unit->charge(0));
  EXPECT_EQ(rig.acct.count(0), 25u);
}

TEST(EndToEnd, TraceDumpAndRerunReproducesVerdict) {
  const std::string path =
      ::testing::TempDir() + "castanet_e2e_trace.txt";
  accounting_trace(20).save(path);
  const traffic::CellTrace loaded = traffic::CellTrace::load(path);

  AccountingCosim first(loaded);
  first.session.run_until(SimTime::from_us(5 * 20 + 100));
  AccountingCosim second(loaded);
  second.session.run_until(SimTime::from_us(5 * 20 + 100));

  EXPECT_EQ(first.acct.count(0), second.acct.count(0));
  EXPECT_EQ(first.acct.charge(0), second.acct.charge(0));
  EXPECT_EQ(first.acct.count(0), 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace castanet
