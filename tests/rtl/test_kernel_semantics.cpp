// Deeper VHDL-semantics coverage of the event-driven kernel: transaction
// ordering, last-write-wins per driver, delayed vs delta writes, X
// propagation through logic, stability of the delta loop under
// pathological feedback, the contract of kernel-owned clocks (add_clock)
// and of clocked processes (add_clocked_process), and the write elision at
// schedule_write — fixtures for each of its conditions plus a randomized
// differential against runs that defeat it.  Randomized differentials also
// hold a kernel clock to the writes it replaces, and its direct edge path
// to the general one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "src/core/error.hpp"
#include "src/rtl/module.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::rtl {
namespace {

TEST(KernelSemantics, SameDriverSameTimeLastWriteWins) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 4, Logic::L0);
  sim.schedule_write(s, LogicVector::from_uint(3, 4));
  sim.schedule_write(s, LogicVector::from_uint(9, 4));
  sim.step_time();
  EXPECT_EQ(sim.value(s).to_uint(), 9u);
}

TEST(KernelSemantics, DistinctTimesApplyInOrder) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 4, Logic::L0);
  std::vector<std::uint64_t> seen;
  sim.add_change_observer([&](SignalId, const LogicVector& v, SimTime) {
    seen.push_back(v.to_uint());
  });
  sim.schedule_write(s, LogicVector::from_uint(2, 4), SimTime::from_ns(20));
  sim.schedule_write(s, LogicVector::from_uint(1, 4), SimTime::from_ns(10));
  sim.schedule_write(s, LogicVector::from_uint(3, 4), SimTime::from_ns(30));
  sim.run_until(SimTime::from_ns(40));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(KernelSemantics, ZeroDelayFeedbackTerminatesWhenStable) {
  // p drives s with the same value it reads: one delta, then quiescent
  // (no event since the value does not change).
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  int runs = 0;
  sim.add_process("p", {s}, [&] {
    ++runs;
    sim.schedule_write(s, sim.value(s).bit(0));
  });
  sim.initialize();
  sim.step_time();
  sim.step_time();
  EXPECT_LE(runs, 2);  // initialization + at most one re-run
  EXPECT_TRUE(sim.quiescent());
}

TEST(KernelSemantics, OscillatorBoundedByRunUntil) {
  // A zero-delay ring oscillator (classic VHDL bug) spins delta cycles at
  // one time point; the kernel must make progress and honour external
  // bounds via step limits rather than hanging...  we bound it with an
  // explicit delay so time advances.
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  sim.add_process("inv", {s}, [&] {
    sim.schedule_write(s, logic_not(sim.value(s).bit(0)), SimTime::from_ns(5));
  });
  sim.initialize();
  sim.run_until(SimTime::from_ns(52));
  // Toggles at 5, 10, ..., 50 -> ten transitions, value ends at L0/L1
  // deterministically.
  EXPECT_GE(sim.stats().value_changes, 10u);
  EXPECT_EQ(sim.now(), SimTime::from_ns(52));
}

TEST(KernelSemantics, XPropagatesThroughCombinationalChain) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 1, Logic::L1);
  const SignalId y = sim.create_signal("y", 1);
  sim.add_process("and", {a, b}, [&] {
    sim.schedule_write(y, logic_and(sim.value(a).bit(0), sim.value(b).bit(0)));
  });
  sim.initialize();
  sim.step_time();
  EXPECT_EQ(sim.value(y).bit(0), Logic::L0);
  sim.schedule_write(a, Logic::X, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(1));
  EXPECT_EQ(sim.value(y).bit(0), Logic::X);  // X & 1 = X
  sim.schedule_write(b, Logic::L0, SimTime::from_ns(1));  // lands at 2 ns
  sim.run_until(SimTime::from_ns(2));
  EXPECT_EQ(sim.value(y).bit(0), Logic::L0);  // X & 0 = 0: X masked
}

TEST(KernelSemantics, EventDistinguishedFromTransaction) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  int events = 0;
  sim.add_process("watch", {s}, [&] { ++events; });
  sim.initialize();
  events = 0;
  // Three transactions, only two change the value.
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(2));  // no event
  sim.schedule_write(s, Logic::L0, SimTime::from_ns(3));
  sim.run_until(SimTime::from_ns(5));
  EXPECT_EQ(events, 2);
  EXPECT_EQ(sim.stats().transactions >= 3, true);
}

TEST(KernelSemantics, RoseFellOnlyDuringTriggeringDelta) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  bool rose_in_delta = false;
  sim.add_process("watch", {s}, [&] { rose_in_delta = sim.rose(s); });
  sim.initialize();
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(1));
  EXPECT_TRUE(rose_in_delta);
  // Outside any delta of s, rose() is false even though the value is '1'.
  EXPECT_FALSE(sim.rose(s) && sim.fell(s));
  sim.run_until(SimTime::from_ns(10));
  EXPECT_FALSE(sim.rose(s));
}

TEST(KernelSemantics, EdgeFromWeakLevelsCounts) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L);
  bool rose = false;
  sim.add_process("watch", {s}, [&] { rose = sim.rose(s); });
  sim.initialize();
  sim.schedule_write(s, Logic::H, SimTime::from_ns(1));  // weak 0 -> weak 1
  sim.run_until(SimTime::from_ns(1));
  EXPECT_TRUE(rose);
}

TEST(KernelSemantics, NegativeDelayRejected) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1);
  EXPECT_THROW(
      sim.schedule_write(s, Logic::L1, SimTime::from_ns(-1)),
      LogicError);
}

TEST(KernelSemantics, TimePointCountsDistinctTimes) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.schedule_write(s, Logic::L0, SimTime::from_ns(1));  // same time
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(7));
  sim.run_until(SimTime::from_ns(10));
  EXPECT_EQ(sim.stats().time_points, 2u);
}

TEST(KernelSemantics, ManySignalsManyProcessesScale) {
  // Smoke-scale: a 64-stage shift register clocked 256 times.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<SignalId> stages;
  stages.push_back(sim.create_signal("in", 1, Logic::L1));
  for (int i = 1; i <= 64; ++i) {
    stages.push_back(
        sim.create_signal("st" + std::to_string(i), 1, Logic::L0));
  }
  for (int i = 1; i <= 64; ++i) {
    const SignalId src = stages[static_cast<std::size_t>(i - 1)];
    const SignalId dst = stages[static_cast<std::size_t>(i)];
    sim.add_process("sh" + std::to_string(i), {clk}, [&sim, clk, src, dst] {
      if (sim.rose(clk)) sim.schedule_write(dst, sim.value(src).bit(0));
    });
  }
  for (int c = 0; c < 256; ++c) {
    sim.schedule_write(clk, Logic::L1, SimTime::from_ns(2));
    sim.run_until(sim.now() + SimTime::from_ns(2));
    sim.schedule_write(clk, Logic::L0, SimTime::from_ns(2));
    sim.run_until(sim.now() + SimTime::from_ns(2));
  }
  // After 64+ clocks the '1' has filled the register.
  EXPECT_EQ(sim.value(stages[64]).bit(0), Logic::L1);
}

// --- kernel clocks ------------------------------------------------------------

/// One committed value change of a scalar signal.
struct Edge {
  SimTime t;
  SignalId sig;
  Logic v;
  bool operator==(const Edge&) const = default;
};

/// Records every committed change of the scalar signals in `sigs`.
void record_edges(Simulator& sim, std::vector<SignalId> sigs,
                  std::vector<Edge>& out) {
  sim.add_change_observer([&out, sigs](SignalId s, const LogicVector& v,
                                       SimTime t) {
    if (std::find(sigs.begin(), sigs.end(), s) != sigs.end()) {
      out.push_back({t, s, v.bit(0)});
    }
  });
}

SimTime ps(std::int64_t n) { return SimTime::from_ps(n); }

TEST(KernelClock, OddPeriodSplitsHighThenLow) {
  // 51 ps: high for 51/2 = 25 ps, low for the remaining 26.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {clk}, edges);
  sim.add_clock(clk, ps(51), SimTime::zero());
  sim.run_until(ps(153));
  const std::vector<Edge> want = {
      {ps(0), clk, Logic::L1},   {ps(25), clk, Logic::L0},
      {ps(51), clk, Logic::L1},  {ps(76), clk, Logic::L0},
      {ps(102), clk, Logic::L1}, {ps(127), clk, Logic::L0},
      {ps(153), clk, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.clock_rising_edges(0), 4u);
  EXPECT_EQ(sim.stats().time_points, 7u);
  EXPECT_EQ(sim.stats().callbacks, 0u);
}

TEST(KernelClock, PhaseCountsFromNow) {
  // Phase 0 rises at once; a positive phase delays the first rising edge
  // from the time add_clock is called and drives '0' until then.
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::U);
  const SignalId b = sim.create_signal("b", 1, Logic::U);
  std::vector<Edge> edges;
  record_edges(sim, {a, b}, edges);
  sim.run_until(ps(1000));
  sim.add_clock(a, ps(100), SimTime::zero());
  sim.add_clock(b, ps(100), ps(30));
  sim.run_until(ps(1130));
  // a's '0' and its first rising edge stage in one delta; the edge wins.
  const std::vector<Edge> want = {
      {ps(1000), a, Logic::L1}, {ps(1000), b, Logic::L0},
      {ps(1030), b, Logic::L1},
      {ps(1050), a, Logic::L0}, {ps(1080), b, Logic::L0},
      {ps(1100), a, Logic::L1}, {ps(1130), b, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.clock_rising_edges(0), 2u);
  EXPECT_EQ(sim.clock_rising_edges(1), 2u);
}

TEST(KernelClock, CoincidentEdgesShareATimePointInAddOrder) {
  // Two clocks with one period, added in the reverse of signal order, and
  // a callback at an edge time: one time point per edge time, and the
  // first delta stages the edges in add_clock order, then the callback's
  // write.
  Simulator sim;
  const SignalId sa = sim.create_signal("a", 1, Logic::L0);
  const SignalId sb = sim.create_signal("b", 1, Logic::L0);
  const SignalId sc = sim.create_signal("c", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {sa, sb, sc}, edges);
  sim.add_clock(sb, SimTime::from_ns(10), SimTime::zero());
  sim.add_clock(sa, SimTime::from_ns(10), SimTime::zero());
  sim.schedule_callback(SimTime::from_ns(10),
                        [&] { sim.schedule_write(sc, Logic::L1); });
  sim.run_until(SimTime::from_ns(10));
  const SimTime t0 = SimTime::zero();
  const SimTime t5 = SimTime::from_ns(5);
  const SimTime t10 = SimTime::from_ns(10);
  const std::vector<Edge> want = {
      {t0, sb, Logic::L1},  {t0, sa, Logic::L1},  {t5, sb, Logic::L0},
      {t5, sa, Logic::L0},  {t10, sb, Logic::L1}, {t10, sa, Logic::L1},
      {t10, sc, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.stats().time_points, 3u);
  EXPECT_EQ(sim.stats().delta_cycles, 3u);  // one per time point
  EXPECT_EQ(sim.stats().callbacks, 1u);
}

TEST(KernelClock, EdgeStagesOneDeltaAfterSameTimeDelayedBatch) {
  // A delayed write due at an edge time stages first, in its own delta;
  // the edge follows in the next one, as an external write would.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId d = sim.create_signal("d", 1, Logic::L0);
  struct Run {
    SimTime t;
    bool d_event;
    bool clk_event;
    bool operator==(const Run&) const = default;
  };
  std::vector<Run> runs;
  sim.add_process("watch", {clk, d}, [&] {
    runs.push_back({sim.now(), sim.event(d), sim.event(clk)});
  });
  sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.initialize();
  runs.clear();
  sim.schedule_write(d, Logic::L1, SimTime::from_ns(10));
  const std::uint64_t deltas0 = sim.stats().delta_cycles;
  sim.run_until(SimTime::from_ns(10));
  const std::vector<Run> want = {{SimTime::from_ns(10), true, false},
                                 {SimTime::from_ns(10), false, true}};
  EXPECT_EQ(runs, want);
  EXPECT_EQ(sim.stats().delta_cycles - deltas0, 2u);
  EXPECT_EQ(sim.value(clk).bit(0), Logic::L1);
}

TEST(KernelClock, StopLeavesOneNoOpTimePointThenQuiescent) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const ClockId c = sim.add_clock(clk, SimTime::from_ns(10), SimTime::zero());
  sim.run_until(SimTime::from_ns(12));  // edges at 0, 5, 10; next at 15
  ASSERT_EQ(sim.value(clk).bit(0), Logic::L1);
  sim.stop_clock(c);
  const KernelStats before = sim.stats();
  EXPECT_FALSE(sim.quiescent());
  ASSERT_TRUE(sim.step_time());
  EXPECT_EQ(sim.now(), SimTime::from_ns(15));
  EXPECT_EQ(sim.stats().time_points - before.time_points, 1u);
  EXPECT_EQ(sim.stats().transactions, before.transactions);
  EXPECT_EQ(sim.value(clk).bit(0), Logic::L1);  // the edge wrote nothing
  EXPECT_TRUE(sim.quiescent());
  EXPECT_FALSE(sim.step_time());
  EXPECT_EQ(sim.clock_rising_edges(c), 2u);
}

TEST(KernelClock, RejectsBadArguments) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId bus = sim.create_signal("bus", 4, Logic::L0);
  EXPECT_THROW(sim.add_clock(bus, SimTime::from_ns(10), SimTime::zero()),
               LogicError);
  EXPECT_THROW(sim.add_clock(clk, SimTime::zero(), SimTime::zero()),
               LogicError);
  EXPECT_THROW(sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(-1)),
               LogicError);
  EXPECT_TRUE(sim.quiescent());  // nothing was queued
}

TEST(KernelClock, StartedFromAProcessDrivesOnlyTheExternalSlot) {
  // A process body starts the clock.  Its initial '0' is a test-bench
  // write like every edge, so the net keeps a single driver and rises to
  // '1', not to the 'X' of '0' resolved against '1'.
  Simulator sim;
  const SignalId go = sim.create_signal("go", 1, Logic::L0);
  const SignalId clk = sim.create_signal("clk", 1, Logic::U);
  std::vector<Edge> edges;
  record_edges(sim, {clk}, edges);
  sim.add_process("starter", {go}, [&] {
    if (sim.value(go).bit(0) == Logic::L1) {
      sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
    }
  });
  sim.initialize();
  sim.schedule_write(go, Logic::L1, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(21));
  const std::vector<Edge> want = {{SimTime::from_ns(1), clk, Logic::L0},
                                  {SimTime::from_ns(11), clk, Logic::L1},
                                  {SimTime::from_ns(16), clk, Logic::L0},
                                  {SimTime::from_ns(21), clk, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.drivers_of(clk), std::vector<ProcessId>{kExternalProcess});
}

TEST(KernelClock, ZeroDelayWriteQueuedBeforeASameTimeEdgeCommitsFirst) {
  // `a`'s write and the clock's '0' are queued before the clock's first
  // edge fires at the same time.  All three stage in one delta in that
  // order: `a` commits first, and the edge overrides the '0'.
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {a, clk}, edges);
  sim.run_until(ps(1000));
  sim.schedule_write(a, Logic::L1);
  sim.add_clock(clk, ps(100), SimTime::zero());
  const KernelStats before = sim.stats();
  ASSERT_TRUE(sim.step_time());
  const std::vector<Edge> want = {{ps(1000), a, Logic::L1},
                                  {ps(1000), clk, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.stats().delta_cycles - before.delta_cycles, 1u);
  EXPECT_EQ(sim.stats().transactions - before.transactions, 3u);
}

TEST(KernelClock, CallbackWriteAtAnEdgeTimeOverridesTheEdge) {
  // The callback's write and the edge share the kExternalProcess slot; the
  // callback runs after the edge fired, so its write stages last and wins.
  // Until it stages, the queued edge is activity due now.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {clk}, edges);
  const ClockId c =
      sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  SimTime next_in_callback = SimTime::max();
  sim.schedule_callback(SimTime::from_ns(10), [&] {
    next_in_callback = sim.next_activity();
    sim.schedule_write(clk, Logic::L0);
  });
  sim.run_until(SimTime::from_ns(20));
  EXPECT_EQ(next_in_callback, SimTime::from_ns(10));
  const std::vector<Edge> want = {{SimTime::from_ns(20), clk, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.drivers_of(clk), std::vector<ProcessId>{kExternalProcess});
  EXPECT_EQ(sim.clock_rising_edges(c), 2u);
  // The '0', three edges and the callback's write.
  EXPECT_EQ(sim.stats().transactions, 5u);
  EXPECT_EQ(sim.stats().value_changes, 1u);
}

TEST(KernelClock, SecondProcessDriverResolvesWithTheEdges) {
  // A process drives the clock net too: a weak 'L' lets both levels
  // through, a strong '1' turns every falling edge into 'X'.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::U);
  const SignalId strong = sim.create_signal("strong", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {clk}, edges);
  const ProcessId drv = sim.add_process("drv", {strong}, [&] {
    sim.schedule_write(
        clk, sim.value(strong).bit(0) == Logic::L1 ? Logic::L1 : Logic::L);
  });
  sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.run_until(SimTime::from_ns(20));
  sim.schedule_write(strong, Logic::L1, SimTime::from_ns(2));
  sim.run_until(SimTime::from_ns(40));
  const auto ns = [](std::int64_t n) { return SimTime::from_ns(n); };
  const std::vector<Edge> want = {
      {ns(0), clk, Logic::L0},  {ns(10), clk, Logic::L1},
      {ns(15), clk, Logic::L0}, {ns(20), clk, Logic::L1},
      {ns(25), clk, Logic::X},  {ns(30), clk, Logic::L1},
      {ns(35), clk, Logic::X},  {ns(40), clk, Logic::L1}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.drivers_of(clk),
            (std::vector<ProcessId>{kExternalProcess, drv}));
}

TEST(KernelClock, EachEdgeCountsOneTransactionAndOneValueChange) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.run_until(SimTime::zero());  // stages the initial '0'
  const KernelStats before = sim.stats();
  sim.run_until(SimTime::from_ns(100));  // rising 10..100, falling 15..95
  const KernelStats& after = sim.stats();
  EXPECT_EQ(after.transactions - before.transactions, 19u);
  EXPECT_EQ(after.value_changes - before.value_changes, 19u);
  EXPECT_EQ(after.time_points - before.time_points, 19u);
  EXPECT_EQ(after.delta_cycles - before.delta_cycles, 19u);
  EXPECT_EQ(after.writes_elided, before.writes_elided);
}

// --- clocked processes --------------------------------------------------------

TEST(KernelClocked, InitRunWithClockLowCountsOneActivationAndNoCall) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  int calls = 0;
  sim.add_clocked_process("p", clk, [&] { ++calls; });
  sim.initialize();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(sim.stats().process_activations, 1u);
  EXPECT_EQ(sim.stats().gated_skips, 0u);
}

TEST(KernelClocked, InitRunWithClockDrivenHighCallsOnce) {
  // The clock rises in the initialization delta.  The rising commit queues
  // the body, and its own initialization run must not queue it again.  On
  // a mixed net the body is queued by the per-entry walk instead of the
  // whole-list fan-out; both count one call and one activation.
  for (const bool mixed : {false, true}) {
    Simulator sim;
    const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
    int calls = 0, level_runs = 0;
    sim.add_clocked_process("p", clk, [&] {
      EXPECT_TRUE(sim.rose(clk));
      ++calls;
    });
    if (mixed) sim.add_process("level", {clk}, [&] { ++level_runs; });
    sim.schedule_write(clk, Logic::L1);
    sim.initialize();
    EXPECT_EQ(calls, 1) << "mixed " << mixed;
    EXPECT_EQ(level_runs, mixed ? 1 : 0);
    EXPECT_EQ(sim.stats().process_activations, mixed ? 2u : 1u)
        << "mixed " << mixed;
  }
}

TEST(KernelClocked, ProbeIsUncleanEmptyAndDoesNotCallTheBody) {
  // Same result as a raw process guarded by rose(): the guard's edge query
  // is what made the probe unclean.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId a = sim.create_signal("a", 1, Logic::L1);
  const SignalId y = sim.create_signal("y", 1, Logic::L0);
  int calls = 0;
  const ProcessId p = sim.add_clocked_process("p", clk, [&] {
    ++calls;
    sim.schedule_write(y, sim.value(a).bit(0));
  });
  const ProcessId guarded = sim.add_process("guarded", {clk}, [&] {
    if (sim.rose(clk)) sim.schedule_write(y, sim.value(a).bit(0));
  });
  sim.restrict_sensitivity_to_rising(guarded, clk);
  sim.initialize();
  const KernelStats before = sim.stats();
  for (const ProcessId q : {p, guarded}) {
    const Simulator::ProbeResult r = sim.probe_process(q);
    EXPECT_FALSE(r.clean) << "pid " << q;
    EXPECT_TRUE(r.writes.empty()) << "pid " << q;
    EXPECT_TRUE(r.reads.empty()) << "pid " << q;
  }
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(sim.readers_of(a).empty());
  EXPECT_EQ(sim.stats().process_activations, before.process_activations);
  EXPECT_EQ(sim.stats().transactions, before.transactions);
  EXPECT_EQ(sim.sensitive_rising(clk), (std::vector<std::uint8_t>{1, 1}));
}

/// A clocked process body that records, per run, whether it saw the
/// clock's edge, and parks itself after every run.
struct ParkingBody {
  Simulator* sim;
  SignalId clk;
  std::vector<bool>* saw_edge;
  void operator()() const {
    saw_edge->push_back(sim->rose(clk));
    sim->gate_current_process();
  }
};

TEST(KernelClocked, GatedBodyRunsWhenAWakeSignalCommitsLaterInTheEdgeDelta) {
  // At 30 ns a callback writes the wake signal.  Its write stages behind
  // the clock edge in the same delta, so the gated body is already queued
  // when the wake signal commits; the gate is checked when its turn comes.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId wake = sim.create_signal("wake", 1, Logic::L0);
  std::vector<bool> saw_edge;
  const ProcessId g =
      sim.add_clocked_process("g", clk, ParkingBody{&sim, clk, &saw_edge});
  sim.set_wake_signals(g, {wake});
  sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.run_until(SimTime::from_ns(20));  // edges at 10 (runs) and 20 (gated)
  ASSERT_EQ(saw_edge, std::vector<bool>{true});
  ASSERT_TRUE(sim.process_gated(g));
  EXPECT_EQ(sim.stats().gated_skips, 1u);
  sim.schedule_callback(SimTime::from_ns(10),
                        [&] { sim.schedule_write(wake, Logic::L1); });
  const std::uint64_t deltas0 = sim.stats().delta_cycles;
  sim.run_until(SimTime::from_ns(30));
  EXPECT_EQ(saw_edge, (std::vector<bool>{true, true}));
  EXPECT_EQ(sim.stats().delta_cycles - deltas0, 2u);  // 25 ns, then 30 ns
  EXPECT_EQ(sim.stats().gated_skips, 1u);
  EXPECT_TRUE(sim.process_gated(g));
}

TEST(KernelClocked, GatedBodyRunsWhenAnEarlierBodyWakesItInTheSameDelta) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<bool> saw_edge;
  ProcessId g = 0;
  int edges = 0;
  sim.add_clocked_process("waker", clk, [&] {
    if (++edges == 3) sim.wake_process(g);
  });
  g = sim.add_clocked_process("g", clk, ParkingBody{&sim, clk, &saw_edge});
  sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.run_until(SimTime::from_ns(20));
  ASSERT_EQ(saw_edge, std::vector<bool>{true});
  sim.run_until(SimTime::from_ns(30));  // the waker runs first, then g
  EXPECT_EQ(saw_edge, (std::vector<bool>{true, true}));
  EXPECT_EQ(sim.stats().gated_skips, 1u);
  // Activations: two initialization runs, then waker 3 + g 2.
  EXPECT_EQ(sim.stats().process_activations, 7u);
}

TEST(KernelClocked, MixedNetKeepsRegistrationOrderAndLevelWakeups) {
  // Clocked bodies and a level-sensitive process on one clock: a rising
  // edge runs all three in registration order, a falling edge only the
  // level-sensitive one.  A clock net of clocked bodies only keeps the same
  // order through the whole-list fan-out.
  for (const bool mixed : {true, false}) {
    Simulator sim;
    const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
    std::string order;
    sim.add_clocked_process("a", clk, [&] { order += 'a'; });
    if (mixed) {
      sim.add_process("L", {clk}, [&] { order += sim.rose(clk) ? 'L' : 'l'; });
    }
    sim.add_clocked_process("b", clk, [&] { order += 'b'; });
    sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
    sim.initialize();
    std::vector<std::string> runs = {order};
    for (int edge = 0; edge < 3; ++edge) {  // rise 10, fall 15, rise 20
      order.clear();
      ASSERT_TRUE(sim.step_time());
      runs.push_back(order);
    }
    const std::vector<std::string> want =
        mixed ? std::vector<std::string>{"l", "aLb", "l", "aLb"}
              : std::vector<std::string>{"", "ab", "", "ab"};
    EXPECT_EQ(runs, want) << "mixed " << mixed;
  }
}

TEST(KernelClock, SelfGatedBodyWokenByItsOwnClockRunsEveryCycle) {
  // The body gates itself after every run but lists its own clock as a wake
  // signal: each edge re-arms it as it commits, so the body runs at every
  // rising edge and no wakeup is skipped.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<bool> saw_edge;
  const ProcessId g =
      sim.add_clocked_process("g", clk, ParkingBody{&sim, clk, &saw_edge});
  sim.set_wake_signals(g, {clk});
  const ClockId c =
      sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(10));
  sim.initialize();
  const KernelStats before = sim.stats();
  sim.run_until(SimTime::from_ns(100));  // rising 10..100, falling 15..95
  EXPECT_EQ(saw_edge, std::vector<bool>(10, true));
  EXPECT_EQ(sim.clock_rising_edges(c), 10u);
  EXPECT_EQ(sim.stats().process_activations - before.process_activations,
            10u);
  EXPECT_EQ(sim.stats().gated_skips, 0u);
  EXPECT_EQ(sim.stats().delta_cycles - before.delta_cycles, 19u);
  EXPECT_TRUE(sim.process_gated(g));  // parked by its last run
}

TEST(KernelClock, TwoClocksOnOneNetStageInAddOrderAndCommitOnce) {
  // Both clocks drive the net's one kExternalProcess slot.  From 5 ns on
  // their edges coincide with opposite levels: both stage, in add_clock
  // order, and the net commits once, to the level of the clock added last
  // — so at 5 ns it holds its '1' and nothing changes.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<Edge> edges;
  record_edges(sim, {clk}, edges);
  int calls = 0;
  sim.add_clocked_process("p", clk, [&] { ++calls; });
  const ClockId a = sim.add_clock(clk, SimTime::from_ns(10), SimTime::zero());
  const ClockId b =
      sim.add_clock(clk, SimTime::from_ns(10), SimTime::from_ns(5));
  sim.run_until(SimTime::from_ns(30));
  const auto ns = [](std::int64_t n) { return SimTime::from_ns(n); };
  const std::vector<Edge> want = {
      {ns(0), clk, Logic::L1},  {ns(10), clk, Logic::L0},
      {ns(15), clk, Logic::L1}, {ns(20), clk, Logic::L0},
      {ns(25), clk, Logic::L1}, {ns(30), clk, Logic::L0}};
  EXPECT_EQ(edges, want);
  EXPECT_EQ(sim.clock_rising_edges(a), 4u);
  EXPECT_EQ(sim.clock_rising_edges(b), 3u);
  EXPECT_EQ(calls, 3);  // the rising commits at 0, 15 and 25 ns
  const KernelStats& st = sim.stats();
  // The two '0's, then one edge at 0 ns and two at each later time.
  EXPECT_EQ(st.transactions, 15u);
  EXPECT_EQ(st.value_changes, 6u);
  EXPECT_EQ(st.time_points, 7u);
  EXPECT_EQ(st.delta_cycles, 8u);  // initialization, then one per time
  EXPECT_EQ(st.process_activations, 4u);
  EXPECT_EQ(st.gated_skips, 0u);
}

// --- write elision ------------------------------------------------------------

TEST(WriteElision, SameActivationOverrideKeepsLastWriteWins) {
  // The driver slot holds '1'.  Writing '0' then '1' must commit nothing:
  // the '1' equals the slot but may not be dropped behind the queued '0'.
  // Writing '1' then '0' drops the re-assert and commits the '0'.
  for (const bool reassert_last : {true, false}) {
    Simulator sim;
    const SignalId trig = sim.create_signal("trig", 1, Logic::L0);
    const SignalId out = sim.create_signal("out", 1, Logic::L0);
    sim.add_process("p", {trig}, [&] {
      if (sim.value(trig).bit(0) != Logic::L1) {
        sim.schedule_write(out, Logic::L1);  // initialization: slot := '1'
        return;
      }
      sim.schedule_write(out, reassert_last ? Logic::L0 : Logic::L1);
      sim.schedule_write(out, reassert_last ? Logic::L1 : Logic::L0);
    });
    sim.initialize();
    ASSERT_EQ(sim.value(out).bit(0), Logic::L1);
    const KernelStats before = sim.stats();
    sim.schedule_write(trig, Logic::L1, SimTime::from_ns(1));
    sim.run_until(SimTime::from_ns(1));
    const KernelStats& after = sim.stats();
    if (reassert_last) {
      EXPECT_EQ(sim.value(out).bit(0), Logic::L1);
      EXPECT_EQ(after.writes_elided, before.writes_elided);
      EXPECT_EQ(after.value_changes - before.value_changes, 1u);  // trig
    } else {
      EXPECT_EQ(sim.value(out).bit(0), Logic::L0);
      EXPECT_EQ(after.writes_elided - before.writes_elided, 1u);
      EXPECT_EQ(after.value_changes - before.value_changes, 2u);
    }
  }
}

TEST(WriteElision, ResolvedBusReassertWhileOtherDriverChanges) {
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const SignalId bus = sim.create_signal("bus", 4, Logic::Z);
  const std::vector<std::string> toggle_seq = {"ZZZZ", "10ZZ", "0111", "ZZZZ"};
  std::size_t step = 0;
  const ProcessId hold = sim.add_process("hold", {clk}, [&] {
    sim.schedule_write(bus, LogicVector::from_string("ZZ01"));
  });
  const ProcessId toggle = sim.add_process("toggle", {clk}, [&] {
    sim.schedule_write(bus, LogicVector::from_string(toggle_seq[step]));
  });
  sim.initialize();
  EXPECT_EQ(sim.drivers_of(bus), (std::vector<ProcessId>{hold, toggle}));
  EXPECT_EQ(sim.value(bus).to_string(), "ZZ01");

  const std::vector<std::string> resolved = {"ZZ01", "1001", "01X1", "ZZ01"};
  for (step = 1; step < toggle_seq.size(); ++step) {
    const KernelStats before = sim.stats();
    sim.schedule_write(clk, step % 2 ? Logic::L1 : Logic::L0,
                       SimTime::from_ns(1));
    sim.run_until(sim.now() + SimTime::from_ns(1));
    EXPECT_EQ(sim.value(bus).to_string(), resolved[step]) << "step " << step;
    // Only `hold`'s unchanged contribution is dropped.
    EXPECT_EQ(sim.stats().writes_elided - before.writes_elided, 1u);
    EXPECT_EQ(sim.driver_value(bus, hold)->to_string(), "ZZ01");
    EXPECT_EQ(sim.driver_value(bus, toggle)->to_string(), toggle_seq[step]);
  }
}

TEST(WriteElision, ExternalCallbackAndDelayedWritesAlwaysStage) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  const SignalId d = sim.create_signal("d", 1, Logic::L0);
  const SignalId trig = sim.create_signal("trig", 1, Logic::L0);
  sim.add_process("delayed", {trig}, [&] {
    sim.schedule_write(d, Logic::L1, SimTime::from_ns(2));  // same each run
  });
  sim.initialize();
  for (int i = 0; i < 3; ++i) {
    sim.schedule_write(s, Logic::L1);  // external, same value every round
    sim.schedule_callback(SimTime::from_ns(1),
                          [&] { sim.schedule_write(s, Logic::L1); });
    sim.schedule_write(trig, i % 2 ? Logic::L0 : Logic::L1,
                       SimTime::from_ns(1));
    sim.run_until(sim.now() + SimTime::from_ns(5));
  }
  EXPECT_EQ(sim.stats().writes_elided, 0u);
  // 3 external + 3 callback + 3 trig + 4 delayed (initialization + 3 runs).
  EXPECT_EQ(sim.stats().transactions, 13u);
  EXPECT_EQ(sim.value(s).bit(0), Logic::L1);
  EXPECT_EQ(sim.value(d).bit(0), Logic::L1);
}

TEST(WriteElision, FirstWriteCreatesDriverSlot) {
  // Both writes equal the signals' current values, yet stage: the process
  // has no driver slot on either signal until they do.
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 8, Logic::L0);
  const ProcessId p = sim.add_process("p", {}, [&] {
    sim.schedule_write(s, Logic::L0);
    sim.schedule_write_uint(b, 0);
  });
  sim.initialize();
  EXPECT_EQ(sim.stats().transactions, 2u);
  EXPECT_EQ(sim.stats().writes_elided, 0u);
  EXPECT_EQ(sim.stats().value_changes, 0u);
  EXPECT_EQ(sim.drivers_of(s), std::vector<ProcessId>{p});
  EXPECT_EQ(sim.drivers_of(b), std::vector<ProcessId>{p});
  ASSERT_NE(sim.driver_value(s, p), nullptr);
  EXPECT_TRUE(sim.driver_value(s, p)->equals_scalar(Logic::L0));
  ASSERT_NE(sim.driver_value(b, p), nullptr);
  EXPECT_TRUE(sim.driver_value(b, p)->equals_uint(0));
}

TEST(WriteElision, ProbeCapturesWriteTheKernelWouldElide) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L1);
  const SignalId y = sim.create_signal("y", 1, Logic::L0);
  const ProcessId p = sim.add_process(
      "buf", {a}, [&] { sim.schedule_write(y, sim.value(a).bit(0)); });
  sim.initialize();  // y's slot for `buf` now holds '1'
  ASSERT_EQ(sim.value(y).bit(0), Logic::L1);
  const KernelStats before = sim.stats();
  const Simulator::ProbeResult r = sim.probe_process(p);
  ASSERT_EQ(r.writes.size(), 1u);
  EXPECT_EQ(r.writes[0].sig, y);
  EXPECT_TRUE(r.writes[0].value.equals_scalar(Logic::L1));
  EXPECT_EQ(sim.stats().writes_elided, before.writes_elided);
  EXPECT_EQ(sim.stats().transactions, before.transactions);
  EXPECT_TRUE(sim.quiescent());
}

// --- randomized differential: elided vs shadowed writes -----------------------

/// One committed value change.  `delta` ranks the committing delta among
/// the committing deltas of its time point.
struct Commit {
  std::int64_t t_ps;
  int delta;
  SignalId sig;
  std::string value;
  auto operator<=>(const Commit&) const = default;
};

struct NetlistRun {
  std::vector<Commit> commits;
  /// The same commits unsorted, in commit order, each with its absolute
  /// delta (stats().delta_cycles when it committed).
  std::vector<Commit> raw;
  KernelStats stats;
};

/// Writes through the scalar, uint and vector paths.  A shadowing writer
/// first writes a different value in the same activation: last-write-wins
/// discards it, but it leaves a write queued, so the real write is staged
/// even when it re-drives the slot's value.
struct Writer {
  Simulator* sim;
  bool shadow;

  void scalar(SignalId s, Logic v) const {
    if (shadow) sim->schedule_write(s, v == Logic::L0 ? Logic::L1 : Logic::L0);
    sim->schedule_write(s, v);
  }
  void uint(SignalId s, std::uint64_t v) const {
    if (shadow) sim->schedule_write_uint(s, v ^ 1);
    sim->schedule_write_uint(s, v);
  }
  void vector(SignalId s, LogicVector v, bool as_lvalue) const {
    if (shadow) {
      LogicVector other = v;
      other.set_bit(0, v.bit(0) == Logic::L0 ? Logic::L1 : Logic::L0);
      sim->schedule_write(s, std::move(other));
    }
    if (as_lvalue) {
      sim->schedule_write(s, v);
    } else {
      sim->schedule_write(s, std::move(v));
    }
  }
};

/// How run_random_netlist clocks its clocked processes.
enum class Clocking {
  kGuarded,        ///< raw rising-edge entries guarded by rose()
  kKernelClocked,  ///< unguarded add_clocked_process bodies
  /// add_clocked_process bodies on an add_clock clock instead of the
  /// delayed external writes the other two schedule.
  kKernelClock,
};

/// Seeded random netlist: scalars and buses (one wider than 64 bits),
/// clocked processes with private state, an acyclic layer of combinational
/// processes, multi-driver nets whose drivers alternate between a value
/// and release, and external stimulus.  Runs `cycles` clock periods.  With
/// `edge_callbacks`, a no-op timed callback shares every edge's time point.
NetlistRun run_random_netlist(std::uint32_t seed, bool shadow,
                              Clocking clocking = Clocking::kGuarded,
                              bool edge_callbacks = false, int cycles = 120) {
  std::mt19937 rng(seed);
  const auto roll = [&](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  Simulator sim;
  const Writer out{&sim, shadow};
  const Signal clk(&sim, sim.create_signal("clk", 1, Logic::L0));

  constexpr std::size_t kWidths[] = {1, 1, 4, 8, 100};
  std::vector<SignalId> sigs;
  const auto add_signal = [&](std::size_t width) {
    const Logic init = roll(4) == 0 ? Logic::U : Logic::L0;
    sigs.push_back(sim.create_signal("s" + std::to_string(sigs.size()),
                                     width, init));
    return sigs.back();
  };
  for (int i = 0; i < 6; ++i) add_signal(kWidths[roll(5)]);
  const SignalId ext_in = add_signal(4);
  sigs.push_back(clk.id());

  // A deterministic function of the read values (hashing the MSB-first
  // strings covers U/X/Z/W bits too) and of their edge state in this delta.
  const auto digest = [&sim](const std::vector<SignalId>& reads,
                             std::uint64_t salt) {
    std::uint64_t h = salt * 0x9e3779b97f4a7c15ULL;
    for (SignalId r : reads) {
      h = (h ^ std::hash<std::string>{}(sim.value(r).to_string())) *
          0x100000001b3ULL;
      const std::uint64_t edge = (sim.event(r) ? 1u : 0u) |
                                 (sim.rose(r) ? 2u : 0u) |
                                 (sim.fell(r) ? 4u : 0u);
      h = (h ^ edge) * 0x100000001b3ULL;
    }
    return h;
  };
  // Writes a value derived from `h` through the path `s`'s width allows.
  const auto drive = [&sim, out](SignalId s, std::uint64_t h, bool release) {
    const std::size_t w = sim.width(s);
    if (release) {
      out.vector(s, LogicVector(w, Logic::Z), (h & 1) != 0);
    } else if (w == 1) {
      constexpr Logic kScalar[] = {Logic::L0, Logic::L1, Logic::L0,
                                   Logic::L1, Logic::X,  Logic::Z};
      out.scalar(s, kScalar[h % 6]);
    } else if (w <= 64) {
      out.uint(s, h >> 3);
    } else {
      LogicVector v(w, Logic::L0);
      v.set_value_word(0, h);
      v.set_value_word(1, h >> 17);
      out.vector(s, std::move(v), (h & 2) != 0);
    }
  };

  const auto add_clocked = [&sim, clk, clocking](std::string name,
                                                 std::function<void()> body) {
    if (clocking != Clocking::kGuarded) {
      sim.add_clocked_process(std::move(name), clk.id(), std::move(body));
      return;
    }
    const ProcessId pid =
        sim.add_process(std::move(name), {clk.id()}, [clk, body] {
          if (clk.rose()) body();
        });
    sim.restrict_sensitivity_to_rising(pid, clk.id());
  };

  // Clocked processes: private state that advances every few edges, so
  // most writes re-assert the value already driven.
  std::vector<SignalId> multi;  // nets given a second clocked driver
  for (int p = 0; p < 5; ++p) {
    std::vector<SignalId> reads;
    for (std::uint32_t k = 0, n = 1 + roll(3); k < n; ++k) {
      reads.push_back(sigs[roll(static_cast<std::uint32_t>(sigs.size()))]);
    }
    const SignalId target = add_signal(kWidths[roll(5)]);
    if (p < 2) multi.push_back(target);
    const std::uint32_t period = 1 + roll(4);
    add_clocked("clocked" + std::to_string(p),
                [reads, target, period, drive, digest,
                 tick = std::uint64_t{0}]() mutable {
                  ++tick;
                  drive(target, digest(reads, tick / period), false);
                });
  }
  // Second drivers of the multi-driver nets: alternate between releasing
  // the net and driving a conflicting value.
  for (std::size_t m = 0; m < multi.size(); ++m) {
    const SignalId net = multi[m];
    const std::uint32_t period = 2 + roll(3);
    add_clocked("second" + std::to_string(m),
                [net, period, drive, tick = std::uint64_t{0}]() mutable {
                  ++tick;
                  const std::uint64_t phase = tick / period;
                  drive(net, phase * 0x51ed27ULL, phase % 2 == 0);
                });
  }
  // Combinational layer: each process reads earlier signals only (acyclic)
  // and drives a fresh one.
  for (int c = 0; c < 8; ++c) {
    std::vector<SignalId> reads;
    for (std::uint32_t k = 0, n = 1 + roll(3); k < n; ++k) {
      reads.push_back(sigs[roll(static_cast<std::uint32_t>(sigs.size()))]);
    }
    const SignalId target = add_signal(kWidths[roll(5)]);
    // Few distinct outputs, so most re-evaluations re-assert.
    sim.add_process("comb" + std::to_string(c), reads,
                    [reads, target, drive, digest, c] {
                      const std::uint64_t h = digest(reads, 1000 + c) % 5;
                      drive(target, h * 0x2545f4914f6cdd1dULL, false);
                    });
  }

  std::vector<Commit> raw;
  sim.add_change_observer([&](SignalId s, const LogicVector& v, SimTime t) {
    raw.push_back({t.ps(), static_cast<int>(sim.stats().delta_cycles), s,
                   v.to_string()});
  });

  // The same edges either way: rising at 5 ns, then every 5 ns.  Added
  // before initialize(), the clock's '0' stages in the initialization
  // delta, one transaction and no value change.
  const bool kernel_clock = clocking == Clocking::kKernelClock;
  if (kernel_clock) {
    sim.add_clock(clk.id(), SimTime::from_ns(10), SimTime::from_ns(5));
  }
  sim.initialize();
  for (int e = 1; e <= 2 * cycles; ++e) {
    if (!kernel_clock) {
      sim.schedule_write(clk.id(), e % 2 ? Logic::L1 : Logic::L0,
                         SimTime::from_ns(5 * e));
    }
    if (edge_callbacks) sim.schedule_callback(SimTime::from_ns(5 * e), [] {});
    if (roll(5) == 0) {
      sim.schedule_write(ext_in, LogicVector::from_uint(roll(16), 4),
                         SimTime::from_ns(5 * e + 2));
    }
  }
  // Nothing is scheduled after the last stimulus at 10 * cycles + 2 ns
  // but the kernel clock's edges, which stop the run there.
  sim.run_until(SimTime::from_ns(10 * cycles + (kernel_clock ? 2 : 20)));

  // Rank each commit's delta within its time point; order within one delta
  // follows signal discovery and is not part of the contract.
  NetlistRun run{{}, raw, sim.stats()};
  std::int64_t t = -1;
  int last_serial = -1, rank = -1;
  for (Commit c : raw) {
    if (c.t_ps != t) {
      t = c.t_ps;
      rank = -1;
      last_serial = -1;
    }
    if (c.delta != last_serial) {
      last_serial = c.delta;
      ++rank;
    }
    c.delta = rank;
    run.commits.push_back(std::move(c));
  }
  std::sort(run.commits.begin(), run.commits.end());
  return run;
}

TEST(WriteElision, RandomNetlistsMatchShadowedRuns) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const NetlistRun plain = run_random_netlist(seed, false);
    const NetlistRun shadowed = run_random_netlist(seed, true);
    const NetlistRun kernel =
        run_random_netlist(seed, false, Clocking::kKernelClocked);
    ASSERT_FALSE(plain.commits.empty()) << "seed " << seed;
    // Unguarded add_clocked_process bodies behave as the guarded entries.
    EXPECT_EQ(plain.commits, kernel.commits) << "seed " << seed;
    EXPECT_EQ(plain.stats.process_activations,
              kernel.stats.process_activations)
        << "seed " << seed;
    EXPECT_EQ(plain.stats.transactions, kernel.stats.transactions)
        << "seed " << seed;
    EXPECT_EQ(plain.stats.delta_cycles, kernel.stats.delta_cycles)
        << "seed " << seed;
    EXPECT_EQ(plain.commits, shadowed.commits) << "seed " << seed;
    EXPECT_EQ(plain.stats.process_activations,
              shadowed.stats.process_activations)
        << "seed " << seed;
    EXPECT_EQ(plain.stats.value_changes, shadowed.stats.value_changes)
        << "seed " << seed;
    // The plain run elides; the shadowed run stages every real write.
    EXPECT_GT(plain.stats.writes_elided, 0u) << "seed " << seed;
    EXPECT_GT(shadowed.stats.transactions, plain.stats.transactions)
        << "seed " << seed;
  }
}

TEST(KernelClock, RandomNetlistsMatchTransactionDrivenClock) {
  // A kernel clock behaves as the delayed external writes it replaces:
  // the same commits in the same deltas, and the same counters but for
  // the one transaction of add_clock's initial '0'.
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const NetlistRun writes =
        run_random_netlist(seed, false, Clocking::kKernelClocked);
    const NetlistRun clock =
        run_random_netlist(seed, false, Clocking::kKernelClock);
    ASSERT_FALSE(writes.commits.empty()) << "seed " << seed;
    EXPECT_EQ(writes.commits, clock.commits) << "seed " << seed;
    const KernelStats& w = writes.stats;
    const KernelStats& c = clock.stats;
    EXPECT_EQ(w.transactions + 1, c.transactions) << "seed " << seed;
    EXPECT_EQ(w.writes_elided, c.writes_elided) << "seed " << seed;
    EXPECT_EQ(w.value_changes, c.value_changes) << "seed " << seed;
    EXPECT_EQ(w.process_activations, c.process_activations)
        << "seed " << seed;
    EXPECT_EQ(w.delta_cycles, c.delta_cycles) << "seed " << seed;
    EXPECT_EQ(w.time_points, c.time_points) << "seed " << seed;
    EXPECT_EQ(w.gated_skips, c.gated_skips) << "seed " << seed;
    EXPECT_EQ(w.callbacks, c.callbacks) << "seed " << seed;
  }
}

TEST(KernelClock, RandomNetlistsDirectAndGenericEdgePathsAgree) {
  // Alone at its time point an edge takes the direct path
  // (run_edge_delta); a no-op callback at every edge time sends each one
  // down the general path, the delta loop, as an external write.  Both
  // commit the same values in the same deltas and in the same order, and
  // count the same but for the callbacks.
  constexpr std::uint64_t kEdges = 240;  // two per cycle over 120 cycles
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const NetlistRun direct =
        run_random_netlist(seed, false, Clocking::kKernelClock);
    const NetlistRun generic =
        run_random_netlist(seed, false, Clocking::kKernelClock, true);
    ASSERT_FALSE(direct.raw.empty()) << "seed " << seed;
    EXPECT_EQ(direct.raw, generic.raw) << "seed " << seed;
    const KernelStats& d = direct.stats;
    const KernelStats& g = generic.stats;
    EXPECT_EQ(d.transactions, g.transactions) << "seed " << seed;
    EXPECT_EQ(d.writes_elided, g.writes_elided) << "seed " << seed;
    EXPECT_EQ(d.value_changes, g.value_changes) << "seed " << seed;
    EXPECT_EQ(d.process_activations, g.process_activations)
        << "seed " << seed;
    EXPECT_EQ(d.delta_cycles, g.delta_cycles) << "seed " << seed;
    EXPECT_EQ(d.time_points, g.time_points) << "seed " << seed;
    EXPECT_EQ(d.gated_skips, g.gated_skips) << "seed " << seed;
    EXPECT_EQ(d.callbacks + kEdges, g.callbacks) << "seed " << seed;
  }
}

}  // namespace
}  // namespace castanet::rtl
