#include "examples/rigs/accounting_rig.hpp"

#include "src/traffic/processes.hpp"
#include "src/traffic/sources.hpp"

namespace castanet::rigs {

namespace {

cosim::ConservativeSync::Params sync_params(const AccountingRig::Params& p) {
  cosim::ConservativeSync::Params sync;
  sync.policy = p.policy;
  sync.clock_period = p.clk_period;
  return sync;
}

}  // namespace

AccountingRig::AccountingRig() : AccountingRig(Params{}) {}

AccountingRig::AccountingRig(Params params)
    : p(params),
      env(net.add_node("env")),
      clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)),
      rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)),
      clock(hdl, clk, p.clk_period),
      snoop(hw::make_cell_port(hdl, "snoop")),
      driver(hdl, "drv", clk, snoop),
      acct(hdl, "acct", clk, rst, snoop, 8),
      bus(hdl, "bus", clk, acct.addr, acct.data, acct.cs, acct.rw),
      rtl("rtl", hdl, sync_params(p)),
      ref(8),
      refb("reference", sync_params(p)),
      dut(cosim::build_accounting_dut(8, p.rated_hz)) {
  // --- backend 0 (primary): the RTL accounting unit -----------------------
  acct.set_tariff(0, hw::Tariff{1, 0});
  acct.bind_connection({1, 100}, 0, 0);
  rtl.entity().register_input(0, 53, [this](const cosim::TimedMessage& m) {
    driver.enqueue(*m.cell);
  });
  rtl.set_finish_hook([this](cosim::RtlBackend& b, SimTime) {
    // Read the counters out over the microprocessor bus, like the embedded
    // control software would, and respond with [count, clp1, charge].
    std::uint16_t lo = 0, mid = 0, clp_lo = 0, chg_lo = 0, chg_mid = 0;
    bus.write(0x00, 0);
    bus.read(0x01, [&](std::uint16_t v) { lo = v; });
    bus.read(0x02, [&](std::uint16_t v) { mid = v; });
    bus.read(0x07, [&](std::uint16_t v) { clp_lo = v; });
    bus.read(0x04, [&](std::uint16_t v) { chg_lo = v; });
    bus.read(0x05, [&](std::uint16_t v) { chg_mid = v; });
    while (!bus.idle()) hdl.run_until(hdl.now() + p.clk_period);
    hdl.run_until(hdl.now() + p.clk_period * 2);
    b.entity().send_word_response(
        0, {std::uint64_t{mid} << 16 | lo, clp_lo,
            std::uint64_t{chg_mid} << 16 | chg_lo});
  });

  // --- backend 1: the algorithm reference model ---------------------------
  ref.set_tariff(0, hw::Tariff{1, 0});
  ref.bind_connection({1, 100}, 0, 0);
  refb.register_input(0, 1, [this](const cosim::TimedMessage& m) {
    ref.observe(*m.cell);
  });
  refb.set_finish_hook([this](cosim::ReferenceBackend& b, SimTime at) {
    b.respond_words(0, at, {ref.count(0), ref.clp1_count(0), ref.charge(0)});
  });

  // --- backend 2: the fabricated device on the test board -----------------
  board.configure(cosim::make_cell_stream_config(p.gating_factor));
  dut.adapter->set_max_safe_hz(p.rated_hz, p.fault_period);
  dut.unit->set_tariff(0, hw::Tariff{1, 0});
  dut.unit->bind_connection({1, 100}, 0, 0);
  dut.adapter->reset();
  cosim::BoardBackend::Params bp;
  bp.sync = sync_params(p);
  bp.stream = {4096, p.board_clock_hz};
  bp.real_time_per_test_cycle = p.board_real_time_per_test_cycle;
  brd = std::make_unique<cosim::BoardBackend>("board", board, *dut.adapter,
                                              bp);
  brd->register_cell_input(0, 53);
  brd->set_finish_hook([this](cosim::BoardBackend& b, SimTime at) {
    // Same µP readback, but through the board's bidirectional bus.
    cosim::board_bus_write(board, *dut.adapter, 0x00, 0);
    const auto rd = [&](std::uint16_t lo_reg) -> std::uint64_t {
      const std::uint64_t lo =
          cosim::board_bus_read(board, *dut.adapter, lo_reg);
      const std::uint64_t mid =
          cosim::board_bus_read(board, *dut.adapter, lo_reg + 1);
      return mid << 16 | lo;
    };
    const std::uint64_t count = rd(0x01);
    const std::uint64_t clp1 = cosim::board_bus_read(board, *dut.adapter,
                                                     0x07);
    const std::uint64_t charge = rd(0x04);
    b.respond_words(0, at, {count, clp1, charge});
  });

  // --- one testbench drives all three -------------------------------------
  session =
      std::make_unique<cosim::VerificationSession>(net, env, 1, p.session);
  session->attach(rtl);
  session->attach(refb);
  session->attach(*brd);
  session->set_response_handler([](const cosim::TimedMessage&) {});
}

traffic::CellTrace AccountingRig::record_trace(std::size_t cells) {
  traffic::CbrSource src({1, 100}, 1, SimTime::from_ns(50 * 53));
  return traffic::CellTrace::record(src, cells);
}

void AccountingRig::drive(const traffic::CellTrace& trace) {
  auto& gen = env.add_process<traffic::GeneratorProcess>(
      "gen", std::make_unique<traffic::TraceSource>(trace), trace.size());
  net.connect(gen, 0, session->gateway(), 0);
}

void AccountingRig::run(SimTime limit) {
  session->run_until(limit);
  session->comparator().finish();
}

}  // namespace castanet::rigs
