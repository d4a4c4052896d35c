// Experiment E8 — §2's motivation: test-bench reuse.
//
// "The main motivation is to model and reuse test benches at a higher level
//  of abstraction in order to cope with the increasing test bench
//  complexity … This approach significantly reduces the time to construct
//  test benches because it reuses existing test patterns and model
//  descriptions that are available in the network simulation environment."
//
// Table 1: stimulus families available for free from the traffic-model
// library, with generation throughput (vectors/second of wall time) — the
// cost of *having* a test bench once models are reused.
//
// Table 2: one recorded trace reused at all three verification levels
// (reference model, RTL co-simulation, hardware test board) with identical
// verdicts — zero additional test-bench construction per level.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/castanet/board_driver.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/reference.hpp"
#include "src/traffic/conformance.hpp"
#include "src/traffic/mpeg.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/trace.hpp"

using namespace castanet;
using bench::WallTimer;

namespace {

const SimTime kClk = clock_period_hz(20'000'000);

bench::JsonReport* g_report = nullptr;

template <typename MakeSource>
void bench_source(const char* label, MakeSource make) {
  constexpr std::size_t kVectors = 200'000;
  auto src = make();
  WallTimer timer;
  SimTime last;
  for (std::size_t i = 0; i < kVectors; ++i) last = src->next().time;
  const double wall = timer.seconds();
  if (g_report) {
    g_report->begin_row(label);
    g_report->metric("vectors", static_cast<std::uint64_t>(kVectors));
    g_report->metric("vectors_per_sec",
                     static_cast<double>(kVectors) / wall);
    g_report->metric("sim_span_sec", last.seconds());
  }
  std::printf("%-30s %10zu %12.0f %14.3f\n", label, kVectors,
              static_cast<double>(kVectors) / wall, last.seconds());
}

std::uint64_t run_cosim_level(const traffic::CellTrace& trace) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  hw::CellPort snoop = hw::make_cell_port(hdl, "snoop");
  hw::CellPortDriver driver(hdl, "drv", clk, snoop);
  hw::AccountingUnit acct(hdl, "acct", clk, rst, snoop, 8);
  acct.set_tariff(0, hw::Tariff{2, 1});
  acct.bind_connection({1, 100}, 0, 0);
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
  return acct.charge(0);
}

std::uint64_t run_board_level(const traffic::CellTrace& trace) {
  board::HardwareTestBoard board;
  board.configure(cosim::make_cell_stream_config());
  cosim::AccountingBoardDut dut = cosim::build_accounting_dut(8);
  dut.unit->set_tariff(0, hw::Tariff{2, 1});
  dut.unit->bind_connection({1, 100}, 0, 0);
  dut.adapter->reset();
  cosim::BoardCellStream stream(board, {4096, board::kMaxBoardClockHz});
  stream.run(*dut.adapter, trace.arrivals());
  return dut.unit->charge(0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e7_testbench_reuse");
  g_report = &report;
  std::printf("E8: test-bench reuse from the network-simulation level "
              "(§2)\n");
  bench::rule('=');
  std::printf("%-30s %10s %12s %14s\n", "stimulus family", "vectors",
              "vectors/s", "sim span s");
  bench::rule();
  Rng rng(5);
  bench_source("CBR (cell period 3us)", [] {
    return std::make_unique<traffic::CbrSource>(atm::VcId{1, 1}, 0,
                                                SimTime::from_us(3));
  });
  bench_source("Poisson (300k cells/s)", [&] {
    return std::make_unique<traffic::PoissonSource>(atm::VcId{1, 1}, 0,
                                                    300'000.0, rng.fork());
  });
  bench_source("On/Off bursty", [&] {
    traffic::OnOffSource::Params p;
    p.peak_period = SimTime::from_us(3);
    p.mean_on_sec = 1e-3;
    p.mean_off_sec = 1e-3;
    return std::make_unique<traffic::OnOffSource>(atm::VcId{1, 1}, 0, p,
                                                  rng.fork());
  });
  bench_source("MMPP 2-state", [&] {
    return std::make_unique<traffic::MmppSource>(
        atm::VcId{1, 1}, 0, std::vector<double>{400'000.0, 40'000.0},
        std::vector<double>{1e-3, 1e-3}, rng.fork());
  });
  bench_source("MPEG GoP video", [&] {
    return std::make_unique<traffic::MpegSource>(atm::VcId{1, 1}, 0,
                                                 traffic::MpegParams{},
                                                 rng.fork());
  });
  {
    // Conformance vectors are generated in bulk, not streamed.
    WallTimer timer;
    std::vector<std::size_t> bad;
    const auto sweep = traffic::header_sweep_vectors(SimTime::from_us(3));
    const auto gcra = traffic::gcra_boundary_vectors(
        {1, 1}, SimTime::from_us(10), SimTime::from_us(25), 10'000, bad);
    const double wall = timer.seconds();
    std::printf("%-30s %10zu %12.0f %14s\n", "conformance (sweep + GCRA)",
                sweep.size() + gcra.size(),
                static_cast<double>(sweep.size() + gcra.size()) / wall, "-");
  }
  bench::rule();

  std::printf("\none recorded trace reused across all verification levels\n");
  bench::rule('=');
  traffic::CbrSource src({1, 100}, 1, SimTime::from_us(4));
  traffic::CellTrace trace;
  Rng clp(9);
  for (int i = 0; i < 150; ++i) {
    traffic::CellArrival a = src.next();
    a.cell.header.clp = clp.bernoulli(0.2);
    trace.append(a);
  }
  hw::AccountingRef ref(8);
  ref.set_tariff(0, hw::Tariff{2, 1});
  ref.bind_connection({1, 100}, 0, 0);
  for (const auto& a : trace.arrivals()) ref.observe(a.cell);

  const std::uint64_t ref_charge = ref.charge(0);
  const std::uint64_t cosim_charge = run_cosim_level(trace);
  const std::uint64_t board_charge = run_board_level(trace);
  std::printf("%-42s charge = %llu units\n", "level 1: algorithm reference",
              static_cast<unsigned long long>(ref_charge));
  std::printf("%-42s charge = %llu units\n",
              "level 2: RTL DUT via simulator coupling",
              static_cast<unsigned long long>(cosim_charge));
  std::printf("%-42s charge = %llu units\n",
              "level 3: device on the hardware test board",
              static_cast<unsigned long long>(board_charge));
  const bool agree = ref_charge == cosim_charge && ref_charge == board_charge;
  bench::rule();
  std::printf("cross-level agreement: %s (the reuse guarantee of Fig. 1)\n",
              agree ? "EXACT" : "BROKEN");
  return agree ? 0 : 1;
}
