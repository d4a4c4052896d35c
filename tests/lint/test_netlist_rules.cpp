#include "src/lint/netlist.hpp"

#include <gtest/gtest.h>

#include "src/hw/cell_port.hpp"
#include "src/lint/lint.hpp"
#include "src/rtl/module.hpp"

namespace castanet::lint {
namespace {

constexpr SimTime kClk = SimTime::from_ns(50);

Report analyze(rtl::Simulator& sim) {
  Report report;
  analyze_netlist(sim, "", report);
  return report;
}

// --- multi-driven / contention ---------------------------------------------

TEST(NetlistRules, ResolvedBusWithReleasedDriverIsANote) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("bus", 1, rtl::Logic::Z);
  sim.add_process("tri", {}, [&] { sim.schedule_write(s, rtl::Logic::Z); });
  sim.add_process("drv", {}, [&] { sim.schedule_write(s, rtl::Logic::L1); });
  const Report r = analyze(sim);
  EXPECT_TRUE(r.has("NET-MULTI-DRIVEN"));
  EXPECT_FALSE(r.has("NET-CONTENTION"));
  EXPECT_EQ(r.errors(), 0u);
}

TEST(NetlistRules, ConflictingStrongDriversAreContention) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("bus", 1, rtl::Logic::Z);
  sim.add_process("a", {}, [&] { sim.schedule_write(s, rtl::Logic::L0); });
  sim.add_process("b", {}, [&] { sim.schedule_write(s, rtl::Logic::L1); });
  const Report r = analyze(sim);
  ASSERT_TRUE(r.has("NET-CONTENTION"));
  EXPECT_EQ(r.by_rule("NET-CONTENTION").front()->severity, Severity::kError);
  // The diagnostic names both drivers.
  const std::string& msg = r.by_rule("NET-CONTENTION").front()->message;
  EXPECT_NE(msg.find("'a'"), std::string::npos);
  EXPECT_NE(msg.find("'b'"), std::string::npos);
}

// --- combinational loops ----------------------------------------------------

TEST(NetlistRules, CombinationalLoopIsReportedWithItsPath) {
  rtl::Simulator sim;
  const auto s1 = sim.create_signal("s1", 1);
  const auto s2 = sim.create_signal("s2", 1);
  // Two zero-delay buffers in a ring: stable (each copies the other's
  // value), but structurally a delta-cycle feedback loop.
  sim.add_process("fwd", {s2},
                  [&] { sim.schedule_write(s1, sim.value(s2)); });
  sim.add_process("back", {s1},
                  [&] { sim.schedule_write(s2, sim.value(s1)); });
  const Report r = analyze(sim);
  ASSERT_TRUE(r.has("NET-COMB-LOOP"));
  const Diagnostic& d = *r.by_rule("NET-COMB-LOOP").front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("'fwd'"), std::string::npos);
  EXPECT_NE(d.message.find("'back'"), std::string::npos);
  EXPECT_NE(d.message.find("->"), std::string::npos);
}

TEST(NetlistRules, ClockedRingIsNotACombinationalLoop) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  const auto s1 = sim.create_signal("s1", 1, rtl::Logic::L0);
  const auto s2 = sim.create_signal("s2", 1, rtl::Logic::L0);
  // Registered feedback: both processes are sensitive only to the clock, so
  // there is no delta-cycle loop even though the data flow is circular.
  sim.add_process("ff1", {clk.id()}, [&, clk] {
    if (clk.rose()) sim.schedule_write(s1, sim.value(s2));
  });
  sim.add_process("ff2", {clk.id()}, [&, clk] {
    if (clk.rose()) sim.schedule_write(s2, sim.value(s1));
  });
  rtl::ClockGen gen(sim, clk, kClk);
  settle(sim, kClk);
  const Report r = analyze(sim);
  EXPECT_FALSE(r.has("NET-COMB-LOOP"));
}

// --- port bindings ----------------------------------------------------------

TEST(NetlistRules, WidthMismatchOnDeclaredBinding) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("narrow", 4);
  sim.declare_port_binding(s, rtl::PortDir::kIn, 8, "mon.data");
  const Report r = analyze(sim);
  ASSERT_TRUE(r.has("NET-WIDTH-MISMATCH"));
  const Diagnostic& d = *r.by_rule("NET-WIDTH-MISMATCH").front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.location.find("mon.data"), std::string::npos);
}

TEST(NetlistRules, CellPortMonitorOnNarrowBusCaughtStatically) {
  // A CellPortMonitor takes its lane width from the data bus, so a 4-bit
  // bus, which is not 8, 16 or 32 bits wide, is rejected when the monitor
  // is built, before any clock runs.  WidthMismatchOnDeclaredBinding keeps
  // NET-WIDTH-MISMATCH covered.
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  hw::CellPort port;
  port.data = rtl::Bus(&sim, sim.create_signal("p.data", 4));
  port.sync = rtl::Signal(&sim, sim.create_signal("p.sync", 1));
  port.valid = rtl::Signal(&sim, sim.create_signal("p.valid", 1));
  EXPECT_THROW(hw::CellPortMonitor(sim, "mon", clk, port), LogicError);
}

TEST(NetlistRules, UndrivenUninitializedInputIsAnError) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("dangling", 1);  // init U
  sim.declare_port_binding(s, rtl::PortDir::kIn, 1, "dut.enable");
  const Report r = analyze(sim);
  ASSERT_TRUE(r.has("NET-UNDRIVEN"));
  EXPECT_EQ(r.by_rule("NET-UNDRIVEN").front()->severity, Severity::kError);
}

TEST(NetlistRules, UndrivenDefinedInputIsATieOffNote) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("tied", 1, rtl::Logic::L0);
  sim.declare_port_binding(s, rtl::PortDir::kIn, 1, "dut.enable");
  const Report r = analyze(sim);
  EXPECT_FALSE(r.has("NET-UNDRIVEN"));
  ASSERT_TRUE(r.has("NET-UNDRIVEN-CONST"));
  EXPECT_EQ(r.by_rule("NET-UNDRIVEN-CONST").front()->severity,
            Severity::kNote);
}

TEST(NetlistRules, ExternallyDrivenInputIsNotUndriven) {
  rtl::Simulator sim;
  const auto s = sim.create_signal("rst", 1);
  sim.declare_port_binding(s, rtl::PortDir::kIn, 1, "dut.rst");
  sim.schedule_write(s, rtl::Logic::L0);  // test-bench write (external)
  sim.initialize();
  sim.step_time();
  const Report r = analyze(sim);
  EXPECT_FALSE(r.has("NET-UNDRIVEN"));
  EXPECT_FALSE(r.has("NET-UNDRIVEN-CONST"));
}

// --- strict session analysis ------------------------------------------------

TEST(NetlistRules, StrictSessionAnalysisThrowsOnContention) {
  // The elaboration gate a test bench runs after attaching its backends and
  // before run_until: a strict analyze_session throws on the contended bus
  // of an RTL backend.
  rtl::Simulator sim;
  const auto s = sim.create_signal("bus", 1, rtl::Logic::Z);
  sim.add_process("a", {}, [&] { sim.schedule_write(s, rtl::Logic::L0); });
  sim.add_process("b", {}, [&] { sim.schedule_write(s, rtl::Logic::L1); });
  netsim::Simulation net;
  cosim::VerificationSession session(net, net.add_node("env"), 1, {});
  cosim::RtlBackend rtl("rtl", sim, {cosim::SyncPolicy::kGlobalOrder, kClk});
  rtl.entity().register_input(0, 1, [](const cosim::TimedMessage&) {});
  session.attach(rtl);
  const Report r = analyze_session(session);
  ASSERT_TRUE(r.has("NET-CONTENTION"));
  EXPECT_EQ(r.errors(), r.by_rule("NET-CONTENTION").size());
  Options opts;
  opts.strict = true;
  EXPECT_THROW(analyze_session(session, opts), LintError);
}

}  // namespace
}  // namespace castanet::lint
