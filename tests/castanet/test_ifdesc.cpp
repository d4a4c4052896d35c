#include "src/castanet/ifdesc.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "src/castanet/backend.hpp"
#include "src/core/error.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/hw/cell_tx.hpp"

namespace castanet::cosim {
namespace {

constexpr char kAcctDesc[] = R"(# accounting unit interface
interface accounting
serial_in  cells  lane_bytes=1 delta=53
register_bus mgmt addr_bits=8 data_bits=16
)";

TEST(InterfaceDesc, ParsesTextFormat) {
  const InterfaceDesc d = InterfaceDesc::parse(kAcctDesc);
  EXPECT_EQ(d.name, "accounting");
  ASSERT_EQ(d.ports.size(), 2u);
  EXPECT_EQ(d.ports[0].kind, PortKind::kSerialIn);
  EXPECT_EQ(d.ports[0].name, "cells");
  EXPECT_EQ(d.ports[0].lane_bytes, 1u);
  EXPECT_EQ(d.ports[0].delta_cycles, 53u);
  EXPECT_EQ(d.ports[1].kind, PortKind::kRegisterBus);
  EXPECT_EQ(d.ports[1].addr_bits, 8u);
  EXPECT_EQ(d.ports[1].width, 16u);
}

TEST(InterfaceDesc, TextRoundTrip) {
  const InterfaceDesc d = InterfaceDesc::parse(kAcctDesc);
  const InterfaceDesc d2 = InterfaceDesc::parse(d.to_text());
  EXPECT_EQ(d2.name, d.name);
  ASSERT_EQ(d2.ports.size(), d.ports.size());
  for (std::size_t i = 0; i < d.ports.size(); ++i) {
    EXPECT_EQ(d2.ports[i].kind, d.ports[i].kind);
    EXPECT_EQ(d2.ports[i].name, d.ports[i].name);
    EXPECT_EQ(d2.ports[i].lane_bytes, d.ports[i].lane_bytes);
    EXPECT_EQ(d2.ports[i].delta_cycles, d.ports[i].delta_cycles);
  }
}

TEST(InterfaceDesc, CommentsAndBlanksIgnored) {
  const InterfaceDesc d = InterfaceDesc::parse(
      "# leading comment\n\ninterface x\n\nserial_in a # trailing\n");
  EXPECT_EQ(d.name, "x");
  EXPECT_EQ(d.ports.size(), 1u);
}

TEST(InterfaceDesc, ParseErrors) {
  EXPECT_THROW(InterfaceDesc::parse("interface\n"), ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nbogus_port p\n"),
               ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nserial_in\n"), ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nserial_in a badattr=1\n"),
               ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nserial_in a delta=zz\n"),
               ConfigError);
}

TEST(InterfaceDesc, ValidationErrors) {
  EXPECT_THROW(
      InterfaceDesc::parse("interface x\nserial_in a lane_bytes=3\n"),
      ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nserial_in a\nserial_in a\n"),
               ConfigError);
  EXPECT_THROW(
      InterfaceDesc::parse("interface x\nparallel_in p width=65\n"),
      ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("interface x\nserial_in a delta=0\n"),
               ConfigError);
  EXPECT_THROW(InterfaceDesc::parse("serial_in a\n"), ConfigError);  // no name
}

// --- generated interface drives a real DUT ----------------------------------

struct GeneratedRig {
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, SimTime::from_ns(50)};
  RtlBackend rtl{"rtl", hdl,
                 ConservativeSync::Params{SyncPolicy::kGlobalOrder,
                                          SimTime::from_ns(50)}};
  CosimEntity& entity = rtl.entity();

  void pump_to(SimTime t) {
    rtl.push(make_time_update(t));
    rtl.catch_up(t);
  }

  /// The oldest response not yet taken (responses drain in emission order).
  std::optional<TimedMessage> next_response() {
    rtl.drain_responses(responses);
    if (responses.empty()) return std::nullopt;
    TimedMessage m = std::move(responses.front());
    responses.erase(responses.begin());
    return m;
  }
  std::vector<TimedMessage> responses;
};

TEST(GeneratedInterface, DrivesAccountingUnitFromDescription) {
  GeneratedRig rig;
  const InterfaceDesc desc = InterfaceDesc::parse(kAcctDesc);
  GeneratedInterface gen(rig.hdl, rig.clk, rig.entity, desc);

  // The DUT plugs into the generated signal bundles.
  hw::AccountingUnit acct(rig.hdl, "acct", rig.clk, rig.rst,
                          gen.port("cells").lane, 8);
  // The generated register bus drives the DUT's bus pins: connect by
  // re-binding the unit's bus signals is not possible post-construction, so
  // instead verify against a unit built on the generated signals... the
  // AccountingUnit owns its bus signals; drive them through a BusMaster on
  // those signals instead (covered elsewhere).  Here: cells + counters.
  acct.set_tariff(0, hw::Tariff{2, 0});
  acct.bind_connection({1, 100}, 0, 0);

  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = 100;
  for (int i = 0; i < 5; ++i) {
    rig.rtl.push(make_cell_message(
        gen.type_of("cells"),
        SimTime::from_us(1) * static_cast<std::int64_t>(i + 1), c));
  }
  rig.pump_to(SimTime::from_us(40));
  EXPECT_EQ(acct.count(0), 5u);
}

TEST(GeneratedInterface, SerialOutRaisesResponses) {
  GeneratedRig rig;
  const InterfaceDesc desc = InterfaceDesc::parse(
      "interface echo\nserial_in in\nserial_out out\n");
  GeneratedInterface gen(rig.hdl, rig.clk, rig.entity, desc);

  // DUT: receiver wired straight into a transmitter (store-and-forward).
  hw::CellReceiver rx(rig.hdl, "rx", rig.clk, rig.rst, gen.port("in").lane);
  hw::CellTransmitter tx(rig.hdl, "tx", rig.clk, rig.rst,
                         gen.port("out").lane);
  rig.hdl.add_process("fwd", {rx.cell_valid.id()}, [&] {
    if (rx.cell_valid.rose()) {
      tx.cell_in.write(rx.cell_out.read());
      tx.send.write(rtl::Logic::L1);
    } else if (tx.send.read_bool()) {
      tx.send.write(rtl::Logic::L0);
    }
  });

  atm::Cell c;
  c.header.vpi = 3;
  c.header.vci = 33;
  rig.rtl.push(
      make_cell_message(gen.type_of("in"), SimTime::from_us(1), c));
  rig.pump_to(SimTime::from_us(30));

  // The generated monitor must have sent the echoed cell back.
  const auto m = rig.next_response();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, gen.type_of("out"));
  ASSERT_TRUE(m->cell.has_value());
  EXPECT_EQ(m->cell->header.vci, 33);
}

class WideGeneratedLane : public ::testing::TestWithParam<unsigned> {};

TEST_P(WideGeneratedLane, LoopbackReturnsEveryCell) {
  const unsigned lane_bytes = GetParam();
  GeneratedRig rig;
  const std::string lb = " lane_bytes=" + std::to_string(lane_bytes);
  GeneratedInterface gen(
      rig.hdl, rig.clk, rig.entity,
      InterfaceDesc::parse("interface loop\nserial_in in" + lb +
                           "\nserial_out out" + lb + "\n"));
  const hw::CellPort in = gen.port("in").lane;
  const hw::CellPort out = gen.port("out").lane;
  EXPECT_EQ(in.data.width(), 8u * lane_bytes);
  EXPECT_EQ(out.data.width(), 8u * lane_bytes);

  // DUT: the input lane forwarded to the output lane one clock later.
  rig.hdl.add_clocked_process("fwd", rig.clk.id(), [in, out] {
    out.data.write(in.data.read());
    out.sync.write(in.sync.read());
    out.valid.write(in.valid.read());
  });

  std::vector<atm::Cell> sent(2);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i].header.vpi = 2;
    sent[i].header.vci = static_cast<std::uint16_t>(40 + i);
    sent[i].payload.fill(static_cast<std::uint8_t>(0xA0 + i));
    rig.rtl.push(make_cell_message(
        gen.type_of("in"),
        SimTime::from_us(1) * static_cast<std::int64_t>(i + 1), sent[i]));
  }
  rig.pump_to(SimTime::from_us(10));

  for (const atm::Cell& c : sent) {
    const auto m = rig.next_response();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, gen.type_of("out"));
    ASSERT_TRUE(m->cell.has_value());
    EXPECT_EQ(*m->cell, c);
  }
  EXPECT_FALSE(rig.next_response().has_value());
}

INSTANTIATE_TEST_SUITE_P(LaneWidths, WideGeneratedLane,
                         ::testing::Values(2u, 4u));

TEST(GeneratedInterface, ParallelPortsCarryWords) {
  GeneratedRig rig;
  const InterfaceDesc desc = InterfaceDesc::parse(
      "interface regs\nparallel_in cmd width=16 delta=1\n"
      "parallel_out status width=16\n");
  GeneratedInterface gen(rig.hdl, rig.clk, rig.entity, desc);

  // DUT: status <= cmd + 1, valid follows.
  rtl::Bus cmd = gen.port("cmd").data;
  rtl::Signal cmd_v = gen.port("cmd").valid;
  rtl::Bus status = gen.port("status").data;
  rtl::Signal status_v = gen.port("status").valid;
  rig.hdl.add_process("dut", {rig.clk.id()}, [&] {
    if (!rig.hdl.rose(rig.clk.id())) return;
    if (cmd_v.read_bool()) {
      status.write_uint((cmd.read_uint() + 1) & 0xFFFF);
      status_v.write(rtl::Logic::L1);
    } else {
      status_v.write(rtl::Logic::L0);
    }
  });

  rig.rtl.push(
      make_word_message(gen.type_of("cmd"), SimTime::from_us(1), {41}));
  rig.pump_to(SimTime::from_us(5));
  const auto m = rig.next_response();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, gen.type_of("status"));
  ASSERT_EQ(m->words.size(), 1u);
  EXPECT_EQ(m->words[0], 42u);
}

TEST(GeneratedInterface, UnknownPortNameThrows) {
  GeneratedRig rig;
  GeneratedInterface gen(rig.hdl, rig.clk, rig.entity,
                         InterfaceDesc::parse("interface x\nserial_in a\n"));
  EXPECT_THROW(gen.port("b"), LogicError);
  EXPECT_THROW(gen.type_of("b"), LogicError);
  EXPECT_THROW(gen.bus_write(0, 0), LogicError);  // no register_bus declared
}

TEST(GeneratedInterface, MessageTypesAssignedInDeclarationOrder) {
  GeneratedRig rig;
  GeneratedInterface gen(
      rig.hdl, rig.clk, rig.entity,
      InterfaceDesc::parse(
          "interface x\nserial_in a\nserial_out b\nparallel_in c width=8\n"),
      /*first_type=*/10);
  EXPECT_EQ(gen.type_of("a"), 10u);
  EXPECT_EQ(gen.type_of("b"), 11u);
  EXPECT_EQ(gen.type_of("c"), 12u);
  EXPECT_EQ(gen.ports(), 3u);
}

}  // namespace
}  // namespace castanet::cosim
