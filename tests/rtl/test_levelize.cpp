// Netlist levelization (rtl::levelize, which the lint dataflow engine uses
// for cone ranks): process classification and cyclic regions.  Then the
// kernel's delta loop on the fixtures levelization singles out — a NOR latch
// (including U/X/Z/W propagation), a transparent latch and a comb-derived
// clock — checked by value, and activity gating (DESIGN.md §7.7).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/rtl/levelize.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::rtl {
namespace {

/// One committed value change, stringified for trajectory comparison.
struct Change {
  std::string sig;
  std::string value;
  std::int64_t t_ps;
  bool operator==(const Change&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Change& c) {
    return os << c.sig << "=" << c.value << "@" << c.t_ps << "ps";
  }
};

std::vector<Change>* capture(Simulator& sim) {
  auto* out = new std::vector<Change>;
  sim.add_change_observer([&sim, out](SignalId s, const LogicVector& v,
                                      SimTime t) {
    out->push_back({sim.signal_name(s), v.to_string(), t.ps()});
  });
  return out;
}

// --- schedule classification ------------------------------------------------

TEST(Levelize, ClassifiesKindsAndRanks) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 1, Logic::L0);
  const SignalId c = sim.create_signal("c", 1, Logic::L0);

  const ProcessId seq = sim.add_process("seq", {clk}, [&] {});
  sim.restrict_sensitivity_to_rising(seq, clk);
  const ProcessId c1 = sim.add_process("c1", {a}, [&] {
    sim.schedule_write(b, sim.value(a).bit(0));
  });
  const ProcessId c2 = sim.add_process("c2", {b}, [&] {
    sim.schedule_write(c, sim.value(b).bit(0));
  });
  sim.initialize();  // harvests the driver slots

  const LevelSchedule sched = levelize(sim);
  ASSERT_EQ(sched.kind.size(), sim.process_count());
  EXPECT_EQ(sched.kind[kExternalProcess], ProcKind::kExternal);
  EXPECT_EQ(sched.kind[seq], ProcKind::kSequential);
  EXPECT_EQ(sched.kind[c1], ProcKind::kCombinational);
  EXPECT_EQ(sched.kind[c2], ProcKind::kCombinational);
  EXPECT_LT(sched.rank[c1], sched.rank[c2]);  // c1 feeds c2
  EXPECT_EQ(sched.sequential_count, 1u);
  EXPECT_EQ(sched.combinational_count, 2u);
  EXPECT_EQ(sched.fallback_count, 0u);
  EXPECT_TRUE(sched.fallback_regions.empty());
}

TEST(Levelize, CrossCoupledPairFormsFallbackRegion) {
  Simulator sim;
  const SignalId q = sim.create_signal("q", 1, Logic::L0);
  const SignalId qn = sim.create_signal("qn", 1, Logic::L1);
  const ProcessId p1 = sim.add_process("p1", {qn}, [&] {
    sim.schedule_write(q, logic_not(sim.value(qn).bit(0)));
  });
  const ProcessId p2 = sim.add_process("p2", {q}, [&] {
    sim.schedule_write(qn, logic_not(sim.value(q).bit(0)));
  });
  sim.initialize();

  const LevelSchedule sched = levelize(sim);
  EXPECT_EQ(sched.kind[p1], ProcKind::kFallback);
  EXPECT_EQ(sched.kind[p2], ProcKind::kFallback);
  ASSERT_EQ(sched.fallback_regions.size(), 1u);
  EXPECT_EQ(sched.fallback_regions[0].members,
            (std::vector<ProcessId>{p1, p2}));
}

TEST(Levelize, SelfLoopIsItsOwnFallbackRegion) {
  Simulator sim;
  const SignalId en = sim.create_signal("en", 1, Logic::L0);
  const SignalId d = sim.create_signal("d", 1, Logic::L0);
  const SignalId lq = sim.create_signal("lq", 1, Logic::L0);
  // Transparent latch written with a read of its own output: the proc is
  // level-sensitive to a signal it drives.
  const ProcessId latch = sim.add_process("latch", {en, d, lq}, [&] {
    sim.schedule_write(lq, sim.value(en).bit(0) == Logic::L1
                               ? sim.value(d).bit(0)
                               : sim.value(lq).bit(0));
  });
  sim.initialize();

  const LevelSchedule sched = levelize(sim);
  EXPECT_EQ(sched.kind[latch], ProcKind::kFallback);
  ASSERT_EQ(sched.fallback_regions.size(), 1u);
  EXPECT_EQ(sched.fallback_regions[0].members, std::vector<ProcessId>{latch});
}

// --- delta-loop value checks ----------------------------------------------

/// Cross-coupled NOR latch (the canonical cyclic region) driven through
/// set/reset, plus X/Z/W/U pulses on `set`: each time point must settle to
/// the latch's truth table.
TEST(DeltaLoop, NorLatchSettles) {
  Simulator sim;
  const SignalId set = sim.create_signal("set", 1, Logic::L0);
  const SignalId rst = sim.create_signal("rst", 1, Logic::L1);
  const SignalId q = sim.create_signal("q", 1, Logic::L0);
  const SignalId qn = sim.create_signal("qn", 1, Logic::L1);
  sim.add_process("nor_q", {rst, qn}, [&] {
    sim.schedule_write(
        q, logic_not(logic_or(sim.value(rst).bit(0), sim.value(qn).bit(0))));
  });
  sim.add_process("nor_qn", {set, q}, [&] {
    sim.schedule_write(
        qn, logic_not(logic_or(sim.value(set).bit(0), sim.value(q).bit(0))));
  });
  sim.initialize();

  sim.schedule_write(rst, Logic::L0, SimTime::from_ns(10));
  sim.schedule_write(set, Logic::L1, SimTime::from_ns(20));  // set: q -> 1
  sim.schedule_write(set, Logic::L0, SimTime::from_ns(30));
  sim.schedule_write(rst, Logic::L1, SimTime::from_ns(40));  // reset: q -> 0
  sim.schedule_write(rst, Logic::L0, SimTime::from_ns(50));
  sim.schedule_write(set, Logic::X, SimTime::from_ns(60));   // X in
  sim.schedule_write(set, Logic::L1, SimTime::from_ns(70));
  sim.schedule_write(set, Logic::Z, SimTime::from_ns(80));   // Z in
  sim.schedule_write(set, Logic::W, SimTime::from_ns(90));   // W in
  sim.schedule_write(set, Logic::U, SimTime::from_ns(100));  // U in
  sim.schedule_write(set, Logic::L0, SimTime::from_ns(110));

  struct Sample {
    std::int64_t t_ns;
    Logic q, qn;
  };
  const Sample samples[] = {
      {15, Logic::L0, Logic::L1},  {25, Logic::L1, Logic::L0},
      {35, Logic::L1, Logic::L0},  // held
      {45, Logic::L0, Logic::L1},  {55, Logic::L0, Logic::L1},
      {65, Logic::X, Logic::X},    // X on set enters the loop
      {75, Logic::L1, Logic::L0},  // '1' on set dominates the X
      {85, Logic::L1, Logic::L0},  {95, Logic::L1, Logic::L0},
      {105, Logic::L1, Logic::L0}, {125, Logic::L1, Logic::L0},
  };
  for (const Sample& s : samples) {
    sim.run_until(SimTime::from_ns(s.t_ns));
    EXPECT_EQ(sim.value(q).bit(0), s.q) << "at " << s.t_ns << " ns";
    EXPECT_EQ(sim.value(qn).bit(0), s.qn) << "at " << s.t_ns << " ns";
  }
}

TEST(DeltaLoop, TransparentLatchHoldsValue) {
  Simulator sim;
  const SignalId en = sim.create_signal("en", 1, Logic::L1);
  const SignalId d = sim.create_signal("d", 1, Logic::L0);
  const SignalId lq = sim.create_signal("lq", 1, Logic::U);
  sim.add_process("latch", {en, d, lq}, [&] {
    sim.schedule_write(lq, sim.value(en).bit(0) == Logic::L1
                               ? sim.value(d).bit(0)
                               : sim.value(lq).bit(0));
  });
  sim.initialize();
  sim.schedule_write(d, Logic::L1, SimTime::from_ns(10));  // transparent
  sim.run_until(SimTime::from_ns(15));
  EXPECT_EQ(sim.value(lq).bit(0), Logic::L1);
  sim.schedule_write(en, Logic::L0, SimTime::from_ns(20));  // close the latch
  sim.schedule_write(d, Logic::L0, SimTime::from_ns(30));   // must not pass
  sim.run_until(SimTime::from_ns(40));
  EXPECT_EQ(sim.value(lq).bit(0), Logic::L1);  // held
}

TEST(DeltaLoop, CombDerivedClockWakesSequentialProcess) {
  // A combinational process drives a derived clock; a rising-edge process
  // hangs off it.  The derived edge commits one delta after the clock edge
  // and must still wake the sequential process in the same time point.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId en = sim.create_signal("en", 1, Logic::L1);
  const SignalId gclk = sim.create_signal("gclk", 1, Logic::L0);
  const SignalId cnt = sim.create_signal("cnt", 8, Logic::L0);
  sim.add_process("clkgate", {clk, en}, [&] {
    sim.schedule_write(gclk, logic_and(sim.value(clk).bit(0),
                                       sim.value(en).bit(0)));
  });
  const ProcessId ff = sim.add_process("counter", {gclk}, [&] {
    if (!sim.rose(gclk)) return;
    sim.schedule_write(
        cnt, LogicVector::from_uint(sim.value(cnt).to_uint() + 1, 8));
  });
  sim.restrict_sensitivity_to_rising(ff, gclk);
  sim.initialize();
  for (int edge = 1; edge <= 10; ++edge) {
    sim.schedule_write(clk, edge % 2 ? Logic::L1 : Logic::L0,
                       SimTime::from_ns(5 * edge));
  }
  sim.schedule_write(en, Logic::L0, SimTime::from_ns(22));  // gate 2 edges
  sim.schedule_write(en, Logic::L1, SimTime::from_ns(42));
  sim.run_until(SimTime::from_ns(60));
  // Rising clock edges at 5, 15, 25, 35 and 45 ns; 25 and 35 are gated.
  EXPECT_EQ(sim.value(cnt).to_uint(), 3u);
  EXPECT_EQ(sim.value(gclk).bit(0), Logic::L0);
}

// --- activity gating ----------------------------------------------------------

TEST(Gating, GatedProcessSkipsUntilWakeSignalChanges) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId in = sim.create_signal("in", 1, Logic::L0);
  int runs = 0;
  const ProcessId p = sim.add_process("idle", {clk}, [&] {
    if (!sim.rose(clk)) return;
    ++runs;
    if (sim.value(in).bit(0) != Logic::L1) sim.gate_current_process();
  });
  sim.restrict_sensitivity_to_rising(p, clk);
  sim.set_wake_signals(p, {in});
  sim.initialize();

  // schedule_write delays are relative to now(): each burst schedules n
  // rising/falling pairs ahead of the current time, then runs past them.
  auto tick = [&](int n) {
    const SimTime base = sim.now();
    for (int i = 0; i < 2 * n; ++i) {
      sim.schedule_write(clk, i % 2 ? Logic::L0 : Logic::L1,
                         SimTime::from_ns(5 * (i + 1)));
    }
    sim.run_until(base + SimTime::from_ns(10 * n + 5));
  };

  tick(5);
  EXPECT_EQ(runs, 1);  // first edge ran, gated itself, 4 edges skipped
  EXPECT_TRUE(sim.process_gated(p));
  EXPECT_GE(sim.stats().gated_skips, 4u);

  sim.schedule_write(in, Logic::L1, SimTime::from_ns(5));  // re-arm
  sim.run_until(sim.now() + SimTime::from_ns(6));
  EXPECT_FALSE(sim.process_gated(p));
  const int before = runs;
  tick(3);
  EXPECT_EQ(runs, before + 3);  // awake again, runs every edge
}

TEST(Gating, WakeProcessReArmsWithoutAnySignalChange) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  int runs = 0;
  const ProcessId p = sim.add_process("drv", {clk}, [&] {
    if (!sim.rose(clk)) return;
    ++runs;
    sim.gate_current_process();  // one-shot until woken from outside
  });
  sim.restrict_sensitivity_to_rising(p, clk);
  sim.initialize();

  auto edge = [&](std::int64_t delay_ns) {  // relative to now()
    sim.schedule_write(clk, Logic::L1, SimTime::from_ns(delay_ns));
    sim.schedule_write(clk, Logic::L0, SimTime::from_ns(delay_ns + 5));
  };
  edge(10);
  edge(20);
  sim.run_until(SimTime::from_ns(30));
  EXPECT_EQ(runs, 1);  // second edge was skipped
  EXPECT_TRUE(sim.process_gated(p));

  sim.wake_process(p);  // external state changed (e.g. bytes enqueued)
  EXPECT_FALSE(sim.process_gated(p));
  edge(10);
  sim.run_until(SimTime::from_ns(50));
  EXPECT_EQ(runs, 2);
}

TEST(Gating, TrajectoryUnchangedByGating) {
  // The same two-process design run with and without self-gating must
  // commit identical trajectories — gating only skips provable no-ops.
  auto run = [](bool gate) {
    Simulator sim;
    auto* changes = capture(sim);
    const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
    const SignalId req = sim.create_signal("req", 1, Logic::L0);
    const SignalId ack = sim.create_signal("ack", 1, Logic::L0);
    const ProcessId p = sim.add_process("responder", {clk}, [&sim, clk, req,
                                                             ack, gate] {
      if (!sim.rose(clk)) return;
      if (sim.value(req).bit(0) != Logic::L1) {
        sim.schedule_write(ack, Logic::L0);
        if (gate) sim.gate_current_process();
        return;
      }
      sim.schedule_write(ack, Logic::L1);
    });
    sim.restrict_sensitivity_to_rising(p, clk);
    sim.set_wake_signals(p, {req});
    sim.initialize();
    for (int i = 0; i < 20; ++i) {
      sim.schedule_write(clk, i % 2 ? Logic::L0 : Logic::L1,
                         SimTime::from_ns(5 * (i + 1)));
    }
    sim.schedule_write(req, Logic::L1, SimTime::from_ns(32));
    sim.schedule_write(req, Logic::L0, SimTime::from_ns(52));
    sim.schedule_write(req, Logic::L1, SimTime::from_ns(81));
    sim.run_until(SimTime::from_ns(110));
    std::vector<Change> out = std::move(*changes);
    delete changes;
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace castanet::rtl
