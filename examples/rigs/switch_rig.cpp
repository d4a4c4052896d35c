#include "examples/rigs/switch_rig.hpp"

#include <algorithm>

#include "src/core/rng.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic/sources.hpp"

namespace castanet::rigs {

namespace {

cosim::ConservativeSync::Params sync_params(const SwitchRig::Params& p) {
  cosim::ConservativeSync::Params sync;
  sync.policy = p.policy;
  sync.clock_period = p.clk_period;
  return sync;
}

SwitchRig::Ports make_ports(rtl::Simulator& hdl, rtl::Signal& clk,
                            hw::AtmSwitch& sw) {
  SwitchRig::Ports ports;
  for (std::size_t pt = 0; pt < SwitchRig::kPorts; ++pt) {
    ports.drivers.push_back(std::make_unique<hw::CellPortDriver>(
        hdl, "drv" + std::to_string(pt), clk, sw.phys_in(pt)));
    ports.monitors.push_back(std::make_unique<hw::CellPortMonitor>(
        hdl, "mon" + std::to_string(pt), clk, sw.phys_out(pt)));
  }
  return ports;
}

}  // namespace

SwitchRig::SwitchRig() : SwitchRig(Params{}) {}

SwitchRig::SwitchRig(Params params)
    : p(params),
      env(net.add_node("env")),
      clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)),
      rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)),
      clock(hdl, clk, p.clk_period),
      sw(hdl, "sw", clk, rst),
      ports(make_ports(hdl, clk, sw)),
      ref(kPorts),
      rtl("rtl", hdl, sync_params(p)),
      refb("reference", sync_params(p)),
      session(net, env, kPorts, p.session) {
  session.attach(rtl);   // index 0: primary
  session.attach(refb);  // checked against the primary per output stream

  for (std::size_t pt = 0; pt < kPorts; ++pt) {
    // Identical routing in DUT and reference.
    const atm::VcId in{1, static_cast<std::uint16_t>(100 + pt)};
    const atm::Route route{static_cast<std::uint8_t>((pt + 1) % kPorts),
                           {2, static_cast<std::uint16_t>(200 + pt)},
                           {}};
    sw.install_route(pt, in, route);
    ref.table(pt).install(in, route);
    // The switch translates headers, so cells leave on a different flow than
    // they entered: map the observed output flow (translated VC, on the
    // monitored out-port's stream) back to the input flow so per-flow
    // cells_out and latency are charged where the oracle expects them.
    net.flows().alias({route.out_vc.vpi, route.out_vc.vci,
                       static_cast<std::uint32_t>(route.out_port)},
                      {in.vpi, in.vci, static_cast<std::uint32_t>(pt)});

    rtl.entity().register_input(
        static_cast<cosim::MessageType>(pt), 53,
        [this, pt](const cosim::TimedMessage& m) {
          ports.drivers[pt]->enqueue(*m.cell);
        });
    // Monitors report on the out-port's stream; each out port is fed by
    // exactly one in port here, so per-stream FIFO order is well defined.
    ports.monitors[pt]->set_callback([this, pt](const atm::Cell& c) {
      rtl.entity().send_cell_response(static_cast<cosim::MessageType>(pt), c);
    });
    refb.register_input(
        static_cast<cosim::MessageType>(pt), 1,
        [this, pt](const cosim::TimedMessage& m) {
          if (const auto routed = ref.route(pt, *m.cell)) {
            refb.respond(routed->out_port, m.timestamp, routed->cell);
          }
        });
  }
  session.set_response_handler([](const cosim::TimedMessage&) {});
}

std::vector<traffic::CellTrace> SwitchRig::record_traces(
    std::size_t cells_per_source) {
  Rng rng(2026);
  std::vector<traffic::CellTrace> traces;
  const SimTime spacing = SimTime::from_us(6);
  traffic::CbrSource cbr({1, 100}, 1, spacing);
  traffic::PoissonSource poisson({1, 101}, 2, 50'000.0, rng.fork());
  traffic::OnOffSource::Params op;
  op.peak_period = SimTime::from_us(8);
  op.mean_on_sec = 200e-6;
  op.mean_off_sec = 400e-6;
  traffic::OnOffSource burst({1, 102}, 3, op, rng.fork());
  traffic::CbrSource cbr2({1, 103}, 4, spacing, SimTime::from_us(3));
  traces.push_back(traffic::CellTrace::record(cbr, cells_per_source));
  traces.push_back(traffic::CellTrace::record(poisson, cells_per_source));
  traces.push_back(traffic::CellTrace::record(burst, cells_per_source));
  traces.push_back(traffic::CellTrace::record(cbr2, cells_per_source));
  return traces;
}

SimTime SwitchRig::horizon(const std::vector<traffic::CellTrace>& traces) {
  SimTime h = SimTime::zero();
  for (const auto& t : traces) {
    if (!t.empty()) h = std::max(h, t.arrivals().back().time);
  }
  return h;
}

void SwitchRig::drive(const std::vector<traffic::CellTrace>& traces) {
  for (std::size_t pt = 0; pt < kPorts; ++pt) {
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen" + std::to_string(pt),
        std::make_unique<traffic::TraceSource>(traces[pt]),
        traces[pt].size());
    net.connect(gen, 0, session.gateway(), static_cast<unsigned>(pt));
  }
}

void SwitchRig::run(SimTime limit) {
  session.run_until(limit);
  session.comparator().finish();
}

}  // namespace castanet::rigs
