// The paper's case study (§4): functional verification of an ATM accounting
// unit.
//
// An MPEG video source and a CBR trunk share a link that the accounting
// unit snoops.  The same stimulus drives the cell-level reference model and
// the RTL unit through the co-simulation coupling; afterwards the registers
// are read out over the microprocessor bus and compared.  A second run
// injects a realistic RTL bug (CLP=1 cells not counted) and shows the
// system-level comparison catching it.
//
// Build & run:  ./build/examples/accounting_case_study
#include <cstdio>

#include "src/castanet/comparator.hpp"
#include "src/castanet/session.hpp"
#include "src/castanet/mapping.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/reference.hpp"
#include "src/traffic/mpeg.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/trace.hpp"

using namespace castanet;

namespace {

struct RunResult {
  std::uint64_t count[2];
  std::uint64_t clp1[2];
  std::uint64_t charge[2];
};

/// Runs the accounting unit under co-simulation for the given stimulus and
/// reads the counters back over the µP bus.
RunResult run_dut(const traffic::CellTrace& trace, hw::AccountingFault fault) {
  const SimTime kClk = clock_period_hz(20'000'000);
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  hw::CellPort snoop = hw::make_cell_port(hdl, "snoop");
  hw::CellPortDriver driver(hdl, "drv", clk, snoop);
  hw::AccountingUnit acct(hdl, "acct", clk, rst, snoop, 16);
  cosim::BusMaster bus(hdl, "bus", clk, acct.addr, acct.data, acct.cs,
                       acct.rw);
  acct.set_fault(fault);
  acct.set_tariff(0, hw::Tariff{4, 1});   // video tariff
  acct.set_tariff(1, hw::Tariff{2, 0});   // voice trunk tariff
  acct.bind_connection({2, 200}, 0, 0);   // MPEG VC
  acct.bind_connection({1, 100}, 1, 1);   // CBR VC

  cosim::ConservativeSync::Params sync;
  sync.policy = cosim::SyncPolicy::kGlobalOrder;
  sync.clock_period = kClk;
  cosim::RtlBackend rtl("rtl", hdl, sync);
  cosim::VerificationSession session(net, env, 1, {});
  session.attach(rtl);
  session.set_response_handler([](const cosim::TimedMessage&) {});
  rtl.entity().register_input(0, 53, [&](const cosim::TimedMessage& m) {
    driver.enqueue(*m.cell);
  });

  auto& gen = env.add_process<traffic::GeneratorProcess>(
      "gen", std::make_unique<traffic::TraceSource>(trace), trace.size());
  net.connect(gen, 0, session.gateway(), 0);

  const SimTime horizon =
      trace.arrivals().back().time + SimTime::from_ms(1);
  session.run_until(horizon);

  // Read the counters out over the microprocessor bus, like the embedded
  // control software would.
  RunResult r{};
  for (std::uint16_t conn = 0; conn < 2; ++conn) {
    std::uint16_t lo = 0, mid = 0;
    bus.write(0x00, conn);
    bus.read(0x01, [&](std::uint16_t v) { lo = v; });
    bus.read(0x02, [&](std::uint16_t v) { mid = v; });
    std::uint16_t clp_lo = 0, charge_lo = 0, charge_mid = 0;
    bus.read(0x07, [&](std::uint16_t v) { clp_lo = v; });
    bus.read(0x04, [&](std::uint16_t v) { charge_lo = v; });
    bus.read(0x05, [&](std::uint16_t v) { charge_mid = v; });
    while (!bus.idle()) hdl.run_until(hdl.now() + kClk);
    hdl.run_until(hdl.now() + kClk * 2);
    r.count[conn] = static_cast<std::uint64_t>(mid) << 16 | lo;
    r.clp1[conn] = clp_lo;
    r.charge[conn] = static_cast<std::uint64_t>(charge_mid) << 16 | charge_lo;
  }
  return r;
}

}  // namespace

int main() {
  // --- build the stimulus: MPEG video + CBR trunk, CLP-tagged surplus -----
  Rng rng(42);
  traffic::MpegParams mp;
  mp.link_cell_period = SimTime::from_us(4);  // pace video for the 20MHz DUT
  traffic::MpegSource video({2, 200}, 1, mp, rng.fork());
  traffic::CbrSource trunk({1, 100}, 2, SimTime::from_us(9));
  std::vector<std::unique_ptr<traffic::CellSource>> inputs;
  inputs.push_back(std::make_unique<traffic::MpegSource>(video));
  inputs.push_back(std::make_unique<traffic::CbrSource>(trunk));
  traffic::MergedSource merged(std::move(inputs));
  traffic::CellTrace trace;
  Rng clp_rng(7);
  for (int i = 0; i < 400; ++i) {
    traffic::CellArrival a = merged.next();
    if (a.cell.header.vci == 200 && clp_rng.bernoulli(0.25)) {
      a.cell.header.clp = true;  // tagged surplus video cells
    }
    trace.append(a);
  }

  // --- reference model ------------------------------------------------------
  hw::AccountingRef ref(16);
  ref.set_tariff(0, hw::Tariff{4, 1});
  ref.set_tariff(1, hw::Tariff{2, 0});
  ref.bind_connection({2, 200}, 0, 0);
  ref.bind_connection({1, 100}, 1, 1);
  for (const auto& a : trace.arrivals()) ref.observe(a.cell);

  // --- clean run ------------------------------------------------------------
  std::printf("=== accounting unit case study: clean RTL ===\n");
  const RunResult clean = run_dut(trace, hw::AccountingFault::kNone);
  cosim::ResponseComparator cmp;
  for (std::uint64_t c = 0; c < 2; ++c) {
    cmp.compare_value(c * 10 + 0, ref.count(c), clean.count[c], "count");
    cmp.compare_value(c * 10 + 1, ref.clp1_count(c), clean.clp1[c], "clp1");
    cmp.compare_value(c * 10 + 2, ref.charge(c), clean.charge[c], "charge");
  }
  cmp.finish();
  std::printf("  video: %llu cells (%llu CLP1), charge %llu units\n",
              static_cast<unsigned long long>(clean.count[0]),
              static_cast<unsigned long long>(clean.clp1[0]),
              static_cast<unsigned long long>(clean.charge[0]));
  std::printf("  trunk: %llu cells, charge %llu units\n",
              static_cast<unsigned long long>(clean.count[1]),
              static_cast<unsigned long long>(clean.charge[1]));
  std::printf("  verdict vs reference: %s\n",
              cmp.clean() ? "PASS" : "FAIL");

  // --- faulty run -------------------------------------------------------------
  std::printf("=== accounting unit case study: injected CLP1 bug ===\n");
  const RunResult faulty = run_dut(trace, hw::AccountingFault::kIgnoreClp1);
  cosim::ResponseComparator fcmp;
  for (std::uint64_t c = 0; c < 2; ++c) {
    fcmp.compare_value(c * 10 + 0, ref.count(c), faulty.count[c], "count");
    fcmp.compare_value(c * 10 + 1, ref.clp1_count(c), faulty.clp1[c], "clp1");
    fcmp.compare_value(c * 10 + 2, ref.charge(c), faulty.charge[c], "charge");
  }
  fcmp.finish();
  std::printf("  verdict vs reference: %s (mismatches: %zu)\n%s",
              fcmp.clean() ? "PASS (bug missed!)" : "FAIL (bug caught)",
              fcmp.mismatches().size(), fcmp.report().c_str());

  return (cmp.clean() && !fcmp.clean()) ? 0 : 1;
}
