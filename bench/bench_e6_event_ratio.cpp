// Experiment E7 — the paper's conclusions:
//
// "the number of events that event-driven simulators have to evaluate is an
//  order of magnitude higher compared to the system-level simulation in
//  OPNET.  Thus, the integration of cycle-based simulation techniques is
//  required."
//
// Table 1: events per cell at the three modeling levels — network simulator
// (abstract), event-driven HDL kernel (delta cycles, activations, signal
// updates), and the cycle-based engine.
//
// Table 2: event-driven vs cycle-based simulation of the *same* GCU
// arbitration core (bit-identical behaviour, shared gcu_arbitrate), in
// evaluated cycles per wall second: five alternating repetitions of at
// least one second per engine, reported as median and IQR/median.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/hw/atm_switch.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/gcu.hpp"
#include "src/netsim/simulation.hpp"
#include "src/traffic/processes.hpp"

using namespace castanet;
using bench::WallTimer;

namespace {

const SimTime kClk = clock_period_hz(20'000'000);

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e6_event_ratio");
  constexpr std::size_t kCells = 400;

  std::printf("E7: event ratio across modeling levels (paper conclusions)\n");
  bench::rule('=');
  std::printf("%-34s %10s %12s %14s\n", "level", "cells", "events",
              "events/cell");
  bench::rule();

  // --- network level ----------------------------------------------------
  {
    netsim::Simulation net;
    netsim::Node& env = net.add_node("env");
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen",
        std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                             SimTime::from_us(3)),
        kCells);
    auto& sink = env.add_process<traffic::SinkProcess>("sink");
    sink.set_keep_log(false);
    net.connect(gen, 0, sink, 0);
    net.run();
    report.begin_row("network_abstract");
    report.metric("events", net.scheduler().events_executed());
    report.metric("events_per_cell",
                  static_cast<double>(net.scheduler().events_executed()) /
                      kCells);
    std::printf("%-34s %10zu %12llu %14.1f\n",
                "network simulator (abstract)", kCells,
                static_cast<unsigned long long>(
                    net.scheduler().events_executed()),
                static_cast<double>(net.scheduler().events_executed()) /
                    kCells);
  }

  // --- event-driven HDL level -------------------------------------------
  {
    rtl::Simulator hdl;
    rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
    rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
    rtl::ClockGen clock(hdl, clk, kClk);
    hw::AtmSwitch sw(hdl, "sw", clk, rst);
    sw.install_route(0, {1, 100}, atm::Route{1, {2, 200}, {}});
    hw::CellPortDriver drv(hdl, "drv", clk, sw.phys_in(0));
    hw::CellPortMonitor mon(hdl, "mon", clk, sw.phys_out(1));
    traffic::CbrSource src({1, 100}, 1, SimTime::from_us(3));
    for (std::size_t i = 0; i < kCells; ++i) drv.enqueue(src.next().cell);
    hdl.run_until(SimTime::from_us(3 * kCells + 100));
    const auto& st = hdl.stats();
    const std::uint64_t events =
        st.process_activations + st.value_changes;
    const std::uint64_t writes_issued = st.transactions + st.writes_elided;
    report.begin_row("event_driven_hdl");
    report.metric("events", events);
    report.metric("events_per_cell", static_cast<double>(events) / kCells);
    report.metric("writes_issued", writes_issued);
    report.metric("writes_elided", st.writes_elided);
    std::printf("%-34s %10zu %12llu %14.1f\n",
                "event-driven HDL (RTL switch)", kCells,
                static_cast<unsigned long long>(events),
                static_cast<double>(events) / kCells);
    std::printf("    (%llu activations, %llu deltas; writes: %llu issued, "
                "%llu elided, %llu committed)\n",
                static_cast<unsigned long long>(st.process_activations),
                static_cast<unsigned long long>(st.delta_cycles),
                static_cast<unsigned long long>(writes_issued),
                static_cast<unsigned long long>(st.writes_elided),
                static_cast<unsigned long long>(st.value_changes));
  }

  // --- cycle-based level ---------------------------------------------------
  {
    rtl::CycleEngine eng(kClk);
    hw::GcuCycleModel gcu(4);
    eng.add(gcu);
    // One evaluation per clock: a cell occupies 53 clocks on the lane.
    eng.run_cycles(kCells * 53);
    report.begin_row("cycle_based_gcu");
    report.metric("events", eng.evaluations());
    report.metric("events_per_cell",
                  static_cast<double>(eng.evaluations()) / kCells);
    std::printf("%-34s %10zu %12llu %14.1f\n", "cycle-based engine (GCU)",
                kCells,
                static_cast<unsigned long long>(eng.evaluations()),
                static_cast<double>(eng.evaluations()) / kCells);
  }
  bench::rule();

  // --- engine shoot-out on identical arbitration behaviour -----------------
  // A repetition builds one engine's model and runs it in kChunk-cycle
  // steps until kMinSeconds of wall time have passed.  The engines
  // alternate, the first one flipping every repetition, so drift of the
  // host does not favour either side.
  std::printf("\nevent-driven vs cycle-based simulation of the same GCU "
              "core\n");
  bench::rule('=');
  std::printf("%-22s %4s %12s %10s %16s %10s\n", "engine", "reps",
              "cycles/rep", "wall s", "median cycles/s", "iqr/median");
  bench::rule();
  constexpr std::uint64_t kChunk = 200'000;
  constexpr double kMinSeconds = 1.0;
  constexpr int kReps = 5;
  struct Rep {
    std::uint64_t cycles = 0;
    double wall = 0;
  };
  const auto event_driven = [&] {
    rtl::Simulator hdl;
    rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
    rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
    rtl::ClockGen clock(hdl, clk, kClk);
    std::vector<hw::GlobalControlUnit::InputIf> ifs;
    for (int p = 0; p < 4; ++p) {
      const std::string nm = "i" + std::to_string(p);
      hw::GlobalControlUnit::InputIf f;
      f.req = rtl::Signal(&hdl, hdl.create_signal(nm, 1, rtl::Logic::L1));
      f.dest =
          rtl::Bus(&hdl, hdl.create_signal(nm + ".d", 4,
                                           rtl::Logic::L0));
      f.cell = rtl::Bus(&hdl, hdl.create_signal(nm + ".c", hw::kCellBits,
                                                rtl::Logic::L0));
      ifs.push_back(f);
    }
    hw::GlobalControlUnit gcu(hdl, "gcu", clk, rst, ifs);
    Rep r;
    WallTimer timer;
    do {
      r.cycles += kChunk;
      hdl.run_until(kClk * static_cast<std::int64_t>(r.cycles));
      r.wall = timer.seconds();
    } while (r.wall < kMinSeconds);
    return r;
  };
  const auto cycle_based = [&] {
    rtl::CycleEngine eng(kClk);
    hw::GcuCycleModel gcu(4);
    for (std::size_t p = 0; p < 4; ++p) {
      gcu.in_req[p].req = true;
      gcu.in_req[p].dest = 0;
    }
    eng.add(gcu);
    Rep r;
    WallTimer timer;
    do {
      eng.run_cycles(kChunk);
      r.cycles += kChunk;
      r.wall = timer.seconds();
    } while (r.wall < kMinSeconds);
    return r;
  };
  std::vector<Rep> ev_reps, cy_reps;
  for (int i = 0; i < kReps; ++i) {
    if (i % 2 == 0) {
      ev_reps.push_back(event_driven());
      cy_reps.push_back(cycle_based());
    } else {
      cy_reps.push_back(cycle_based());
      ev_reps.push_back(event_driven());
    }
  }
  // Median and IQR/median of the repetitions' cycles per second.
  struct Summary {
    double median_cps = 0;
    double iqr_over_median = 0;
  };
  const auto summarize = [](const std::vector<Rep>& reps) {
    std::vector<double> cps;
    for (const Rep& r : reps) {
      cps.push_back(static_cast<double>(r.cycles) / r.wall);
    }
    std::sort(cps.begin(), cps.end());
    // Linear interpolation between order statistics, as
    // statistics.quantiles(method="inclusive") does.
    const auto quantile = [&](double q) {
      const double pos = q * static_cast<double>(cps.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, cps.size() - 1);
      return cps[lo] + (pos - static_cast<double>(lo)) * (cps[hi] - cps[lo]);
    };
    const double med = quantile(0.5);
    return Summary{med, (quantile(0.75) - quantile(0.25)) / med};
  };
  const auto print_engine = [&](const char* name, const char* row,
                                const std::vector<Rep>& reps) {
    const Summary s = summarize(reps);
    std::uint64_t cycles = 0;
    double wall = 0;
    for (const Rep& r : reps) {
      cycles += r.cycles;
      wall += r.wall;
    }
    const std::uint64_t mean_cycles = cycles / reps.size();
    std::printf("%-22s %4zu %12llu %10.3f %16.0f %10.3f\n", name, reps.size(),
                static_cast<unsigned long long>(mean_cycles),
                wall / static_cast<double>(reps.size()), s.median_cps,
                s.iqr_over_median);
    report.begin_row(row);
    report.metric("reps", static_cast<std::uint64_t>(reps.size()));
    report.metric("mean_cycles_per_rep", mean_cycles);
    report.metric("median_cycles_per_s", s.median_cps);
    report.metric("iqr_over_median", s.iqr_over_median);
    return s;
  };
  const Summary ev = print_engine("event-driven kernel", "engine_event_driven",
                                  ev_reps);
  const Summary cy = print_engine("cycle-based engine", "engine_cycle_based",
                                  cy_reps);
  bench::rule();
  const double speedup = cy.median_cps / ev.median_cps;
  report.begin_row("engine_speedup");
  report.metric("median_ratio", speedup);
  std::printf("cycle-based speedup (ratio of the medians): %.1fx — the "
              "integration the paper calls for\n", speedup);
  return 0;
}
