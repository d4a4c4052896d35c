// Seeded-defect fixtures for the DF-* dataflow rules (DESIGN.md §13): one
// minimal design per rule, asserting that exactly that rule fires — the
// partitioned rule set (X-SOURCE vs X-SINK, CDC vs RESET) makes "exactly
// one" a meaningful check, not just "at least one".
#include "src/lint/dataflow.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/lint/lint.hpp"
#include "src/rtl/module.hpp"

namespace castanet::lint {
namespace {

constexpr SimTime kClk = SimTime::from_ns(50);

/// The set of DF-* rule IDs present in a report.
std::set<std::string> df_rules(const Report& r) {
  std::set<std::string> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule.rfind("DF-", 0) == 0) out.insert(d.rule);
  }
  return out;
}

DataflowStats analyze(rtl::Simulator& sim, Report& report,
                      DataflowOptions opts = {}) {
  return analyze_dataflow(sim, opts, report);
}

// --- DF-STUCK ---------------------------------------------------------------

TEST(DataflowRules, AndWithTiedZeroInputIsStuck) {
  rtl::Simulator sim;
  const auto a = sim.create_signal("a", 1, rtl::Logic::L0);  // tie-off
  const auto b = sim.create_signal("b", 1, rtl::Logic::L0);
  const auto y = sim.create_signal("y", 1);
  sim.add_process("and0", {a, b}, [&] {
    sim.schedule_write(
        y, rtl::logic_and(sim.value(a).bit(0), sim.value(b).bit(0)));
  });
  sim.initialize();
  sim.schedule_write(b, rtl::Logic::L1);  // external driver: b is ⊤
  sim.step_time();

  DataflowFacts facts;
  DataflowOptions opts;
  opts.facts = &facts;
  Report r;
  const DataflowStats stats = analyze(sim, r, opts);

  EXPECT_EQ(df_rules(r), std::set<std::string>{"DF-STUCK"});
  ASSERT_TRUE(r.has("DF-STUCK"));
  const Diagnostic& d = *r.by_rule("DF-STUCK").front();
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.location.find("signal 'y'"), std::string::npos);
  EXPECT_NE(d.message.find("\"0\""), std::string::npos);
  ASSERT_EQ(facts.stuck.size(), 1u);
  EXPECT_EQ(facts.stuck.front().first, y);
  EXPECT_GT(stats.probe_evaluations, 0u);
  EXPECT_EQ(stats.constant_signals, 1u);
}

TEST(DataflowRules, VaryingOutputIsNotStuck) {
  rtl::Simulator sim;
  const auto a = sim.create_signal("a", 1, rtl::Logic::L0);
  const auto y = sim.create_signal("y", 1);
  sim.add_process("buf", {a},
                  [&] { sim.schedule_write(y, sim.value(a).bit(0)); });
  sim.initialize();
  sim.schedule_write(a, rtl::Logic::L1);  // a is externally driven: ⊤
  sim.step_time();
  Report r;
  analyze(sim, r);
  EXPECT_TRUE(df_rules(r).empty());
}

TEST(DataflowRules, XorOfSameUnknownSignalIsNotStuckAtZero) {
  // y = b XOR b is 0 for any 0/1 value of b — but X for b = X/U/Z, so a
  // sound analysis must NOT claim DF-STUCK: the ⊤ abstraction of the
  // externally driven b includes the unknown class.
  rtl::Simulator sim;
  const auto b = sim.create_signal("b", 1, rtl::Logic::L0);
  const auto y = sim.create_signal("y", 1);
  sim.add_process("xorbb", {b}, [&] {
    sim.schedule_write(
        y, rtl::logic_xor(sim.value(b).bit(0), sim.value(b).bit(0)));
  });
  sim.initialize();
  sim.schedule_write(b, rtl::Logic::L1);
  sim.step_time();
  Report r;
  analyze(sim, r);
  EXPECT_FALSE(r.has("DF-STUCK"));
}

// --- DF-DEAD-BRANCH ---------------------------------------------------------

TEST(DataflowRules, GuardDrivenByConstantConeIsDead) {
  rtl::Simulator sim;
  const auto a = sim.create_signal("a", 1, rtl::Logic::L0);  // tie-off
  const auto b = sim.create_signal("b", 1, rtl::Logic::L0);
  const auto en = sim.create_signal("en", 1);
  const auto d = sim.create_signal("d", 1, rtl::Logic::L0);
  const auto q = sim.create_signal("q", 1);
  sim.add_process("gate", {a, b}, [&] {
    sim.schedule_write(
        en, rtl::logic_and(sim.value(a).bit(0), sim.value(b).bit(0)));
  });
  const auto work = sim.add_process("work", {en, d}, [&] {
    // Output varies with d, so the process itself is not DF-STUCK bait;
    // only the declared guard is provably inactive.
    sim.schedule_write(
        q, rtl::logic_or(sim.value(d).bit(0), sim.value(en).bit(0)));
  });
  sim.declare_guard(work, en, /*active_high=*/true, rtl::GuardKind::kBranch,
                    "m.work");
  sim.initialize();
  sim.schedule_write(b, rtl::Logic::L1);
  sim.schedule_write(d, rtl::Logic::L1);
  sim.step_time();

  DataflowFacts facts;
  DataflowOptions opts;
  opts.facts = &facts;
  Report r;
  analyze(sim, r, opts);

  // en itself is stuck at 0 (that is *why* the guard is dead), so the
  // verdict pair is {DF-STUCK on en, DF-DEAD-BRANCH on en's guard}.
  EXPECT_EQ(df_rules(r),
            (std::set<std::string>{"DF-STUCK", "DF-DEAD-BRANCH"}));
  ASSERT_TRUE(r.has("DF-DEAD-BRANCH"));
  const Diagnostic& g = *r.by_rule("DF-DEAD-BRANCH").front();
  EXPECT_NE(g.location.find("signal 'en'"), std::string::npos);
  EXPECT_NE(g.message.find("'m.work'"), std::string::npos);
  ASSERT_EQ(facts.dead_guards.size(), 1u);
  EXPECT_EQ(facts.dead_guards.front(), 0u);
}

TEST(DataflowRules, UndrivenTieOffGuardIsAnAssumptionNotADeadBranch) {
  // A reset nobody has driven yet is NET-UNDRIVEN-CONST territory; the
  // dataflow rule must not claim "provably never taken" from a tie-off.
  rtl::Simulator sim;
  const auto rst = sim.create_signal("rst", 1, rtl::Logic::L0);
  const auto q = sim.create_signal("q", 1, rtl::Logic::L0);
  const auto work = sim.add_process("work", {rst}, [&] {
    sim.schedule_write(q, rtl::logic_not(sim.value(rst).bit(0)));
  });
  sim.declare_guard(work, rst, /*active_high=*/true, rtl::GuardKind::kReset,
                    "m.work");
  Report r;
  analyze(sim, r);
  EXPECT_FALSE(r.has("DF-DEAD-BRANCH"));
}

// --- DF-X-SOURCE / DF-X-SINK ------------------------------------------------

TEST(DataflowRules, UnknownConsumedByCombLogicOnlyIsASource) {
  rtl::Simulator sim;
  const auto x = sim.create_signal("x", 1);  // U, undriven
  const auto y = sim.create_signal("y", 1);
  sim.declare_port_binding(x, rtl::PortDir::kIn, 1, "dut.x");
  sim.add_process("buf", {x},
                  [&] { sim.schedule_write(y, sim.value(x).bit(0)); });
  Report r;
  analyze(sim, r);
  EXPECT_EQ(df_rules(r), std::set<std::string>{"DF-X-SOURCE"});
  EXPECT_NE(r.by_rule("DF-X-SOURCE").front()->location.find("signal 'x'"),
            std::string::npos);
}

TEST(DataflowRules, UnknownReachingARegisterIsASinkWithItsPath) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  const auto x = sim.create_signal("x", 1);  // U, undriven
  const auto y = sim.create_signal("y", 1);
  const auto q = sim.create_signal("q", 1, rtl::Logic::L0);
  sim.declare_port_binding(x, rtl::PortDir::kIn, 1, "dut.x");
  sim.add_process("buf", {x},
                  [&] { sim.schedule_write(y, sim.value(x).bit(0)); });
  const auto reg = sim.add_process("reg", {clk.id()}, [&, clk] {
    const rtl::Logic v = sim.value(y).bit(0);  // data read, every wake
    if (clk.rose()) sim.schedule_write(q, v);
  });
  sim.restrict_sensitivity_to_rising(reg, clk.id());
  Report r;
  analyze(sim, r);
  // The sink subsumes the source: one diagnostic, anchored at the sink,
  // carrying the propagation path back to the root.
  EXPECT_EQ(df_rules(r), std::set<std::string>{"DF-X-SINK"});
  const Diagnostic& d = *r.by_rule("DF-X-SINK").front();
  EXPECT_NE(d.location.find("signal 'y'"), std::string::npos);
  EXPECT_NE(d.message.find("'x' -> 'y'"), std::string::npos);
  EXPECT_NE(d.message.find("'reg'"), std::string::npos);
}

TEST(DataflowRules, InternalConditionallyDrivenNetDoesNotTaint) {
  // A cell bus idling at U until its first valid pulse is normal hardware;
  // only *declared inputs* (kIn port bindings) can be X roots.
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  const auto cell = sim.create_signal("cell", 8);  // U, no binding
  const auto q = sim.create_signal("q", 8);
  const auto reg = sim.add_process("reg", {clk.id()}, [&, clk] {
    const rtl::LogicVector v = sim.value(cell);
    if (clk.rose()) sim.schedule_write(q, v);
  });
  sim.restrict_sensitivity_to_rising(reg, clk.id());
  Report r;
  analyze(sim, r);
  EXPECT_TRUE(df_rules(r).empty());
}

// --- DF-CDC / DF-RESET ------------------------------------------------------

TEST(DataflowRules, RegisterSamplingForeignDomainDataIsACrossing) {
  rtl::Simulator sim;
  rtl::Signal clk_a(&sim, sim.create_signal("clk_a", 1, rtl::Logic::L0));
  rtl::Signal clk_b(&sim, sim.create_signal("clk_b", 1, rtl::Logic::L0));
  const auto qa = sim.create_signal("qa", 1, rtl::Logic::L0);
  const auto qb = sim.create_signal("qb", 1, rtl::Logic::L0);
  const auto pa = sim.add_process("prod", {clk_a.id()}, [&, clk_a] {
    if (clk_a.rose()) sim.schedule_write(qa, rtl::Logic::L1);
  });
  sim.restrict_sensitivity_to_rising(pa, clk_a.id());
  const auto pb = sim.add_process("cons", {clk_b.id()}, [&, clk_b] {
    const rtl::Logic v = sim.value(qa).bit(0);  // foreign-domain sample
    if (clk_b.rose()) sim.schedule_write(qb, v);
  });
  sim.restrict_sensitivity_to_rising(pb, clk_b.id());
  rtl::ClockGen gen_a(sim, clk_a, kClk);
  rtl::ClockGen gen_b(sim, clk_b, SimTime::from_ns(70));
  sim.set_read_tracking(true);
  sim.initialize();
  sim.run_until(SimTime::from_ns(300));  // both clocks edge, edges harvest
  Report r;
  analyze(sim, r);
  EXPECT_EQ(df_rules(r), std::set<std::string>{"DF-CDC"});
  const Diagnostic& d = *r.by_rule("DF-CDC").front();
  EXPECT_NE(d.location.find("signal 'qa'"), std::string::npos);
  EXPECT_NE(d.message.find("'clk_a'"), std::string::npos);
  EXPECT_NE(d.message.find("'clk_b'"), std::string::npos);
}

TEST(DataflowRules, SameDomainPipelineIsNotACrossing) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  const auto q1 = sim.create_signal("q1", 1, rtl::Logic::L0);
  const auto q2 = sim.create_signal("q2", 1, rtl::Logic::L0);
  const auto p1 = sim.add_process("s1", {clk.id()}, [&, clk] {
    if (clk.rose()) sim.schedule_write(q1, rtl::Logic::L1);
  });
  sim.restrict_sensitivity_to_rising(p1, clk.id());
  const auto p2 = sim.add_process("s2", {clk.id()}, [&, clk] {
    const rtl::Logic v = sim.value(q1).bit(0);
    if (clk.rose()) sim.schedule_write(q2, v);
  });
  sim.restrict_sensitivity_to_rising(p2, clk.id());
  rtl::ClockGen gen(sim, clk, kClk);
  sim.set_read_tracking(true);
  sim.initialize();
  sim.run_until(SimTime::from_ns(300));
  Report r;
  analyze(sim, r);
  EXPECT_TRUE(df_rules(r).empty());
}

TEST(DataflowRules, ResetFromForeignDomainIsReportedAsResetNotCdc) {
  rtl::Simulator sim;
  rtl::Signal clk_a(&sim, sim.create_signal("clk_a", 1, rtl::Logic::L0));
  rtl::Signal clk_b(&sim, sim.create_signal("clk_b", 1, rtl::Logic::L0));
  const auto rst = sim.create_signal("rst_sync", 1, rtl::Logic::L0);
  const auto qb = sim.create_signal("qb", 1, rtl::Logic::L0);
  const auto pr = sim.add_process("rstgen", {clk_a.id()}, [&, clk_a] {
    if (clk_a.rose()) sim.schedule_write(rst, rtl::Logic::L1);
  });
  sim.restrict_sensitivity_to_rising(pr, clk_a.id());
  const auto pb = sim.add_process("cons", {clk_b.id()}, [&, clk_b] {
    const rtl::Logic rv = sim.value(rst).bit(0);
    if (clk_b.rose() && !rtl::to_bool(rv)) {
      sim.schedule_write(qb, rtl::Logic::L1);
    }
  });
  sim.restrict_sensitivity_to_rising(pb, clk_b.id());
  sim.declare_guard(pb, rst, /*active_high=*/true, rtl::GuardKind::kReset,
                    "m.cons");
  rtl::ClockGen gen_a(sim, clk_a, kClk);
  rtl::ClockGen gen_b(sim, clk_b, SimTime::from_ns(70));
  sim.set_read_tracking(true);
  sim.initialize();
  sim.run_until(SimTime::from_ns(300));
  Report r;
  analyze(sim, r);
  // The declared reset is excluded from the CDC data-read set, so the
  // finding lands on DF-RESET alone.
  EXPECT_EQ(df_rules(r), std::set<std::string>{"DF-RESET"});
  const Diagnostic& d = *r.by_rule("DF-RESET").front();
  EXPECT_NE(d.location.find("signal 'rst_sync'"), std::string::npos);
  EXPECT_NE(d.message.find("'m.cons'") != std::string::npos ||
                d.message.find("'cons'") != std::string::npos,
            false);
}

// --- the sandbox restores the simulation -----------------------------------

TEST(DataflowRules, AnalysisLeavesSignalValuesUntouched) {
  rtl::Simulator sim;
  const auto a = sim.create_signal("a", 1, rtl::Logic::L0);
  const auto y = sim.create_signal("y", 1);
  sim.add_process("inv", {a},
                  [&] { sim.schedule_write(y, rtl::logic_not(sim.value(a).bit(0))); });
  sim.initialize();
  sim.schedule_write(a, rtl::Logic::L1);
  sim.step_time();
  const std::string a_before = sim.value(a).to_string();
  const std::string y_before = sim.value(y).to_string();
  Report r;
  analyze(sim, r);
  EXPECT_EQ(sim.value(a).to_string(), a_before);
  EXPECT_EQ(sim.value(y).to_string(), y_before);
  // And the kernel still simulates: a toggle still propagates.
  sim.schedule_write(a, rtl::Logic::L0);
  sim.step_time();
  EXPECT_EQ(sim.value(y).to_string(), "1");
}

}  // namespace
}  // namespace castanet::lint
