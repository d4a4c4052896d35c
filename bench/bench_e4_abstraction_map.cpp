// Experiment E5 — §3.2 and Fig. 4: abstraction interfaces.
//
// Table 1: mapping an abstract ATM cell (a C structure, instantaneous at
// the network level) onto cycle-timed bit-level signals and back, at lane
// widths of 8/16/32 bits.  Reported per width: clocks per cell and HDL
// events per cell, all deterministic.  The timed conversion is
// bench_micro's BM_CellToBitsRoundTrip.
//
// Exits 1 unless the round trip is lossless at every width.
//
// Table 2: the time-scale ratio the paper quotes ("a ratio of 1:100 for a
// simulation time step in OPNET and VSS"): how many HDL kernel activations
// one network-level cell event expands into.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/hw/cell_port.hpp"

using namespace castanet;

namespace {

const SimTime kClk = clock_period_hz(20'000'000);

struct WidthResult {
  std::size_t lane_bytes;
  std::size_t clocks_per_cell;
  double hdl_activations_per_cell;
  double hdl_value_changes_per_cell;
  bool lossless;
};

WidthResult run_width(std::size_t lane_bytes, std::size_t cells) {
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  const hw::CellPort lane = hw::make_cell_port(hdl, "lane", lane_bytes);
  hw::CellPortDriver drv(hdl, "drv", clk, lane);
  hw::CellPortMonitor mon(hdl, "mon", clk, lane);

  std::vector<atm::Cell> sent;
  for (std::size_t i = 0; i < cells; ++i) {
    atm::Cell c;
    c.header.vpi = 1;
    c.header.vci = static_cast<std::uint16_t>(i & 0xFFFF);
    c.payload[0] = static_cast<std::uint8_t>(i);
    sent.push_back(c);
    drv.enqueue(c);
  }
  const auto cycles_needed =
      static_cast<std::int64_t>((drv.clocks_per_cell() * cells + 8));
  hdl.run_until(kClk * cycles_needed);

  bool lossless = mon.cells().size() == sent.size();
  for (std::size_t i = 0; lossless && i < sent.size(); ++i) {
    lossless = mon.cells()[i] == sent[i];
  }
  const auto& st = hdl.stats();
  return {lane_bytes,
          drv.clocks_per_cell(),
          static_cast<double>(st.process_activations) /
              static_cast<double>(cells),
          static_cast<double>(st.value_changes) / static_cast<double>(cells),
          lossless};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e4_abstraction_map");
  constexpr std::size_t kCells = 3000;

  std::printf("E5: abstraction interfaces (Fig. 4) — struct <-> bit-level\n");
  std::printf("one abstract cell event expands into a cycle-timed octet "
              "stream plus control signals\n");
  bench::rule('=');
  std::printf("%5s %10s %14s %14s %9s\n", "lane", "clk/cell",
              "activ./cell", "changes/cell", "lossless");
  bench::rule();
  double activations_8bit = 0;
  bool all_lossless = true;
  for (std::size_t lane : {1u, 2u, 4u}) {
    const WidthResult r = run_width(lane, kCells);
    if (lane == 1) activations_8bit = r.hdl_activations_per_cell;
    all_lossless = all_lossless && r.lossless;
    report.begin_row("lane_" + std::to_string(r.lane_bytes) + "B");
    report.metric("clocks_per_cell",
                  static_cast<std::uint64_t>(r.clocks_per_cell));
    report.metric("activations_per_cell", r.hdl_activations_per_cell);
    report.metric("value_changes_per_cell", r.hdl_value_changes_per_cell);
    report.metric("lossless", static_cast<std::uint64_t>(r.lossless));
    std::printf("%4zuB %10zu %14.1f %14.1f %9s\n", r.lane_bytes,
                r.clocks_per_cell, r.hdl_activations_per_cell,
                r.hdl_value_changes_per_cell, r.lossless ? "yes" : "NO");
  }
  bench::rule();

  std::printf("\ntime-scale ratio (paper: ~1:100 between an OPNET cell event "
              "and VSS clock steps)\n");
  bench::rule('=');
  std::printf("  1 abstract cell event -> %zu HDL clock cycles on an 8-bit "
              "lane -> %.0f kernel activations\n",
              std::size_t{53}, activations_8bit);
  std::printf("  measured expansion ratio 1:%.0f (activations per abstract "
              "event)\n", activations_8bit);
  bench::rule();
  return all_lossless ? 0 : 1;
}
