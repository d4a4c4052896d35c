// Control-plane scenario: signaling + call admission control managing the
// switch's translation tables dynamically.
//
// The paper's introduction frames ATM hardware against "the complexity of
// embedded control software, that implements higher-layer functionality,
// such as call admission control agents and signaling protocols".  This
// example models that software side in the network simulator: Poisson call
// arrivals place SETUPs, the CAC agent admits against per-port capacity and
// installs VPI/VCI routes into BOTH the cell-level reference switch and the
// RTL switch (keeping the two configurations consistent is exactly the
// co-verification environment's job), and bearer cells of admitted calls
// flow through the RTL switch.
//
// Output 1: blocking probability vs offered load (the Erlang-B shape).
// Output 2: one co-verified run with dynamically installed connections.
//
// Build & run:  ./build/examples/signaling_cac
#include <cstdio>

#include "src/castanet/comparator.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/atm_switch.hpp"
#include "src/hw/reference.hpp"
#include "src/signaling/cac.hpp"
#include "src/signaling/call_generator.hpp"
#include "src/traffic/processes.hpp"

using namespace castanet;

namespace {

void blocking_sweep() {
  std::printf("blocking probability vs offered load "
              "(capacity: 4 x 50k-cell/s circuits per port)\n");
  std::printf("%12s %10s %10s %10s %12s\n", "offered (E)", "offered",
              "admitted", "blocked", "P(block)");
  for (double erlang : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    netsim::Simulation sim(static_cast<std::uint64_t>(erlang * 100 + 1));
    netsim::Node& node = sim.add_node("ctrl");
    signaling::CacAgent::Config cfg;
    cfg.link_capacity_cps = 200'000;  // 4 circuits of 50k
    auto& cac = node.add_process<signaling::CacAgent>(
        "cac", cfg, [](std::size_t, atm::VcId, const atm::Route&) {},
        [](std::size_t, atm::VcId) {});
    signaling::CallGenerator::Config gc;
    gc.calls_per_sec = erlang * 2.0;  // holding 0.5 s => offered = E
    gc.mean_holding_sec = 0.5;
    gc.pcr_cps = 50'000;
    gc.max_calls = 2000;
    auto& gen = node.add_process<signaling::CallGenerator>("gen", gc);
    sim.connect(gen, 0, cac, 0);
    sim.connect(cac, 0, gen, 0);
    sim.run();
    std::printf("%12.1f %10llu %10llu %10llu %11.1f%%\n", erlang,
                static_cast<unsigned long long>(gen.offered()),
                static_cast<unsigned long long>(gen.connected()),
                static_cast<unsigned long long>(gen.blocked()),
                100.0 * static_cast<double>(gen.blocked()) /
                    static_cast<double>(gen.offered()));
  }
}

void coverified_dynamic_connections() {
  const SimTime kClk = clock_period_hz(20'000'000);
  netsim::Simulation net(77);
  netsim::Node& env = net.add_node("env");

  rtl::Simulator hdl;
  rtl::Signal clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Signal rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0));
  rtl::ClockGen clock(hdl, clk, kClk);
  hw::AtmSwitch sw(hdl, "sw", clk, rst);
  hw::SwitchRef ref(4);
  hw::CellPortDriver driver(hdl, "drv", clk, sw.phys_in(0));
  hw::CellPortMonitor monitor(hdl, "mon", clk, sw.phys_out(1));

  // CAC keeps RTL and reference tables consistent: one install callback
  // writes both — the configuration-consistency service of CASTANET.
  signaling::CacAgent::Config cfg;
  cfg.link_capacity_cps = 200'000;
  auto& cac = env.add_process<signaling::CacAgent>(
      "cac", cfg,
      [&](std::size_t in, atm::VcId vc, const atm::Route& r) {
        sw.install_route(in, vc, r);
        ref.table(in).install(vc, r);
      },
      [&](std::size_t in, atm::VcId vc) {
        sw.port(in).table().remove(vc);
        ref.table(in).remove(vc);
      });

  signaling::CallGenerator::Config gc;
  gc.calls_per_sec = 50.0;
  gc.mean_holding_sec = 0.02;
  gc.pcr_cps = 60'000;
  gc.in_port = 0;
  gc.out_port = 1;
  gc.max_calls = 30;
  auto& gen = env.add_process<signaling::CallGenerator>("gen", gc);
  net.connect(gen, 0, cac, 0);
  net.connect(cac, 0, gen, 0);

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

  // Bearer traffic: on call-up, a short CBR burst on the assigned VC,
  // forwarded into the RTL switch through the coupling; the reference
  // routes the same cells.
  cosim::ResponseComparator cmp;
  std::uint64_t bearer_cells = 0;
  gen.set_call_hooks(
      [&](std::uint64_t, atm::VcId vc) {
        // 5 cells per call, spaced a cell time apart, at the current time.
        for (int i = 0; i < 5; ++i) {
          atm::Cell c;
          c.header.vpi = vc.vpi;
          c.header.vci = vc.vci;
          c.payload[0] = static_cast<std::uint8_t>(i);
          const SimTime at =
              net.now() + SimTime::from_us(3) * static_cast<std::int64_t>(i + 1);
          net.scheduler().schedule_at(at, [&, c, at] {
            session.gateway_transport().send(
                cosim::make_cell_message(0, at, c));
            if (const auto routed = ref.route(0, c)) cmp.expect(routed->cell);
            ++bearer_cells;
          });
        }
      },
      [](std::uint64_t) {});
  monitor.set_callback([&](const atm::Cell& c) { cmp.actual(c); });

  session.run_until(SimTime::from_ms(800));
  cmp.finish();

  std::printf("\nco-verified dynamic connections\n");
  std::printf("  calls offered/connected/blocked: %llu / %llu / %llu\n",
              static_cast<unsigned long long>(gen.offered()),
              static_cast<unsigned long long>(gen.connected()),
              static_cast<unsigned long long>(gen.blocked()));
  std::printf("  bearer cells through RTL switch: %llu\n",
              static_cast<unsigned long long>(bearer_cells));
  std::printf("  comparator: %s\n%s", cmp.clean() ? "PASS" : "see report",
              cmp.report().c_str());
}

}  // namespace

int main() {
  std::printf("=== signaling + CAC control plane ===\n");
  blocking_sweep();
  coverified_dynamic_connections();
  return 0;
}
