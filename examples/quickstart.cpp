// Quickstart: the smallest complete CASTANET co-verification.
//
// A CBR traffic model (network simulator side) stimulates an RTL cell
// receiver (HDL simulator side) through the conservative simulator coupling;
// the DUT's responses travel back and are compared against the algorithm
// reference model — which for a receiver is the identity on assigned cells.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/castanet/comparator.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/traffic/processes.hpp"

using namespace castanet;

int main() {
  // --- network side: an OPNET-style model with a traffic source ----------
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");

  // --- HDL side: the device under test on a 20 MHz clock -----------------
  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, clock_period_hz(20'000'000));
  hw::CellPort lane = hw::make_cell_port(hdl, "lane");
  hw::CellPortDriver driver(hdl, "drv", clk, lane);   // §3.2 mapping
  hw::CellReceiver dut(hdl, "dut", clk, rst, lane);

  // --- the coupling (Fig. 2) ---------------------------------------------
  // The RTL backend owns the HDL-side co-simulation entity and its
  // conservative sync; the session owns the network-side gateway.
  cosim::ConservativeSync::Params sync;
  sync.policy = cosim::SyncPolicy::kGlobalOrder;
  sync.clock_period = clock_period_hz(20'000'000);
  cosim::RtlBackend rtl("rtl", hdl, sync);
  cosim::VerificationSession session(net, env, /*streams=*/1, {});
  session.attach(rtl);

  // Abstract cells are lowered onto the byte lane (53 clocks + cellsync).
  rtl.entity().register_input(0, /*delta_cycles=*/53,
                              [&](const cosim::TimedMessage& m) {
                                driver.enqueue(*m.cell);
                              });
  // DUT responses are raised back to the abstract level.
  hdl.add_process("respond", {dut.cell_valid.id()}, [&] {
    if (dut.cell_valid.rose()) {
      rtl.entity().send_cell_response(
          0, hw::bits_to_cell(dut.cell_out.read(), false));
    }
  });

  // --- test bench reuse: a stock traffic model is the stimulus -----------
  constexpr std::uint64_t kCells = 50;
  auto& gen = env.add_process<traffic::GeneratorProcess>(
      "gen",
      std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                           SimTime::from_us(5)),
      kCells);
  auto& sink = env.add_process<traffic::SinkProcess>("sink");
  net.connect(gen, 0, session.gateway(), 0);
  net.connect(session.gateway(), 0, sink, 0);

  // Reference model: the receiver must deliver exactly what was sent.
  cosim::ResponseComparator cmp;
  traffic::CbrSource reference(atm::VcId{1, 100}, 1, SimTime::from_us(5));
  for (std::uint64_t i = 0; i < kCells; ++i) cmp.expect(reference.next().cell);

  // --- run the coupled simulation ----------------------------------------
  session.run_until(SimTime::from_us(5 * kCells + 100));
  for (const auto& arrival : sink.log()) cmp.actual(arrival.cell);
  cmp.finish();

  const auto stats = session.stats();
  const auto& rtl_stats = stats.backends[0];
  std::printf("quickstart: %llu cells through the RTL DUT\n",
              static_cast<unsigned long long>(dut.cells_accepted()));
  std::printf("  network events ........ %llu\n",
              static_cast<unsigned long long>(stats.net_events));
  std::printf("  messages net->hdl ..... %llu\n",
              static_cast<unsigned long long>(stats.messages_to_hdl));
  std::printf("  messages hdl->net ..... %llu\n",
              static_cast<unsigned long long>(rtl_stats.responses));
  std::printf("  sync windows granted .. %llu\n",
              static_cast<unsigned long long>(rtl_stats.windows));
  std::printf("  causality errors ...... %llu\n",
              static_cast<unsigned long long>(rtl_stats.causality_errors));
  std::printf("  max HDL lag ........... %.3f us\n",
              rtl_stats.max_lag_seconds * 1e6);
  std::printf("comparison: %s\n%s", cmp.clean() ? "PASS" : "FAIL",
              cmp.report().c_str());
  return cmp.clean() ? 0 : 1;
}
