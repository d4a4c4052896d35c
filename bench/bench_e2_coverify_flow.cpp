// Experiment E2 — Fig. 1 end to end: functional verification of the ATM
// accounting unit against its algorithm reference model, with fault
// injection.
//
// For each injected RTL defect the co-verification flow runs the same
// reused stimulus through reference and DUT and reports how many mismatches
// the system-level comparison surfaced.  A correct flow shows zero
// mismatches for the clean design and nonzero for every defect.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/castanet/comparator.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/reference.hpp"
#include "src/traffic/mpeg.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/trace.hpp"

using namespace castanet;

namespace {

const SimTime kClk = clock_period_hz(20'000'000);

traffic::CellTrace make_stimulus(std::size_t cells) {
  Rng rng(11);
  traffic::MpegParams mp;
  mp.link_cell_period = SimTime::from_us(4);
  std::vector<std::unique_ptr<traffic::CellSource>> inputs;
  inputs.push_back(
      std::make_unique<traffic::MpegSource>(atm::VcId{2, 200}, 1, mp,
                                            rng.fork()));
  inputs.push_back(std::make_unique<traffic::CbrSource>(
      atm::VcId{1, 100}, 2, SimTime::from_us(9)));
  traffic::MergedSource merged(std::move(inputs));
  traffic::CellTrace t;
  Rng clp(3);
  for (std::size_t i = 0; i < cells; ++i) {
    traffic::CellArrival a = merged.next();
    if (a.cell.header.vci == 200 && clp.bernoulli(0.3)) {
      a.cell.header.clp = true;
    }
    t.append(a);
  }
  return t;
}

struct Verdict {
  std::size_t mismatches;
  std::uint64_t cells;
  std::uint64_t messages;
};

Verdict run_flow(const traffic::CellTrace& trace, hw::AccountingFault fault) {
  hw::AccountingRef ref(16);
  ref.set_tariff(0, hw::Tariff{400, 100});
  ref.set_tariff(1, hw::Tariff{2, 0});
  ref.bind_connection({2, 200}, 0, 0);
  ref.bind_connection({1, 100}, 1, 1);
  for (const auto& a : trace.arrivals()) ref.observe(a.cell);

  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  hw::CellPort snoop = hw::make_cell_port(hdl, "snoop");
  hw::CellPortDriver driver(hdl, "drv", clk, snoop);
  hw::AccountingUnit acct(hdl, "acct", clk, rst, snoop, 16);
  acct.set_fault(fault);
  acct.set_tariff(0, hw::Tariff{400, 100});
  acct.set_tariff(1, hw::Tariff{2, 0});
  acct.bind_connection({2, 200}, 0, 0);
  acct.bind_connection({1, 100}, 1, 1);

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

  session.run_until(trace.arrivals().back().time + SimTime::from_ms(1));

  cosim::ResponseComparator cmp;
  for (std::uint64_t c = 0; c < 2; ++c) {
    cmp.compare_value(c * 10 + 0, ref.count(c), acct.count(c), "count");
    cmp.compare_value(c * 10 + 1, ref.clp1_count(c), acct.clp1_count(c),
                      "clp1");
    cmp.compare_value(c * 10 + 2, ref.charge(c), acct.charge(c), "charge");
  }
  cmp.finish();
  return {cmp.mismatches().size(), acct.cells_observed(),
          session.stats().messages_to_hdl};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e2_coverify_flow");
  const traffic::CellTrace trace = make_stimulus(600);
  struct Case {
    const char* label;
    hw::AccountingFault fault;
    bool expect_detect;
  };
  const Case cases[] = {
      {"clean RTL", hw::AccountingFault::kNone, false},
      {"fault: CLP1 cells not counted", hw::AccountingFault::kIgnoreClp1,
       true},
      {"fault: 16-bit charge wraparound",
       hw::AccountingFault::kCharge16BitWrap, true},
  };

  std::printf("E2: co-verification flow with fault injection (Fig. 1)\n");
  std::printf("stimulus: %zu cells (MPEG video + CBR trunk, 30%% CLP-tagged "
              "video)\n", trace.size());
  bench::rule('=');
  std::printf("%-36s %8s %12s %10s\n", "device under test", "cells",
              "mismatches", "verdict");
  bench::rule();
  bool all_ok = true;
  for (const Case& c : cases) {
    const Verdict v = run_flow(trace, c.fault);
    const bool detected = v.mismatches > 0;
    const bool ok = detected == c.expect_detect;
    all_ok = all_ok && ok;
    report.begin_row(c.label);
    report.metric("cells", static_cast<std::uint64_t>(v.cells));
    report.metric("mismatches", static_cast<std::uint64_t>(v.mismatches));
    report.metric("fault_detected", static_cast<std::uint64_t>(detected));
    report.metric("verdict_ok", static_cast<std::uint64_t>(ok));
    std::printf("%-36s %8llu %12zu %10s\n", c.label,
                static_cast<unsigned long long>(v.cells), v.mismatches,
                ok ? (detected ? "CAUGHT" : "PASS") : "UNEXPECTED");
  }
  bench::rule();
  std::printf("flow verdict: %s\n", all_ok ? "all faults detected, clean "
                                             "design passes"
                                           : "FLOW BROKEN");
  return all_ok ? 0 : 1;
}
