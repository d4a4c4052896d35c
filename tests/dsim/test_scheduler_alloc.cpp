// Steady-state allocation contract: once the scheduler's heap, action slab
// and free list are warm, schedule_at/step perform ZERO heap allocations
// for any action whose capture fits SmallFn's inline buffer, and so does a
// netsim run of cell packets, whose cells travel inline.  The RTL kernel
// makes the same promise: a clocked design, Module::clocked processes and
// their activity gates included, runs its cycles with no allocation once
// its scratch vectors are warm, and a timed callback carrying a whole
// TimedMessage (the co-simulation entity's delivery) allocates nothing.
// Proven the same way test_flow_stats.cpp proves the disabled-path
// contract: this binary replaces the global allocator with a counting
// wrapper and asserts the count does not move across the hot phase.
#include "src/dsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "src/castanet/message.hpp"
#include "src/dsim/small_fn.hpp"
#include "src/netsim/queue.hpp"
#include "src/netsim/simulation.hpp"
#include "src/rtl/module.hpp"
#include "src/traffic/processes.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: replaces the global allocator for this test binary.
// Only counts; behavior is unchanged.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace castanet {
namespace {

int g_deliveries = 0;

TEST(SchedulerAlloc, SmallFnStoresHotPathCapturesInline) {
  // netsim's packet-delivery capture {Simulation*, ProcessModel*, unsigned,
  // Packet}, the largest on the hot path.
  netsim::Simulation* sim = nullptr;
  netsim::ProcessModel* dst = nullptr;
  unsigned in_stream = 0;
  SmallFn small([sim, dst, in_stream, pkt = netsim::Packet(atm::Cell{})] {
    if (sim == nullptr && dst == nullptr && pkt.has_cell()) {
      g_deliveries += static_cast<int>(in_stream) + 1;
    }
  });
  EXPECT_TRUE(small.is_inline());
  const std::uint64_t before = g_allocations.load();
  small();
  SmallFn moved = std::move(small);
  moved();
  EXPECT_EQ(g_allocations.load(), before);  // invoke + move: no heap
  EXPECT_EQ(g_deliveries, 2);

  // Oversized captures fall back to a single heap cell, same semantics.
  struct Big {
    unsigned char bytes[SmallFn::kInlineBytes + 8] = {};
  };
  Big big;
  int hits = 0;
  SmallFn large([&hits, big] { ++hits; });
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(hits, 1);
}

TEST(SchedulerAlloc, ScheduleAndStepAreAllocationFreeWhenWarm) {
  Scheduler s;
  std::uint64_t fired = 0;
  constexpr int kPending = 1000;
  const auto populate = [&](int count) {
    for (int i = 0; i < count; ++i) {
      s.schedule_at(s.now() + SimTime::from_ns(1 + (i * 37) % 1000),
                    [&fired] { ++fired; });
    }
  };
  // Warm-up: grow the heap and the slab, then drain so the free list
  // reaches full capacity too, then refill to the steady-state backlog.
  populate(kPending);
  s.run();
  populate(kPending);

  // Steady state: one schedule per pop, live count pinned at kPending; every
  // capture is inline.
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 20'000; ++i) {
    s.schedule_at(s.now() + SimTime::from_ns(1 + (i * 53) % 1000),
                  [&fired] { ++fired; });
    ASSERT_TRUE(s.step());
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "schedule_at/step allocated in steady state";
  s.run();
  EXPECT_EQ(fired, 2u * kPending + 20'000);
}

TEST(SchedulerAlloc, NetsimCellHopsAreAllocationFree) {
  // generator -> queue -> sink over two serializing links: per cell, two
  // deliveries with the Packet in the capture, a service timer and the
  // generator's self timer.
  netsim::Simulation sim;
  netsim::Node& n = sim.add_node("n");
  auto& gen = n.add_process<traffic::GeneratorProcess>(
      "gen", std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 0,
                                                  SimTime::from_us(3)));
  auto& queue = n.add_process<netsim::QueueProcess>(
      "queue", netsim::QueueProcess::Config{SimTime::from_us(2), 4});
  auto& sink = n.add_process<traffic::SinkProcess>("sink");
  sink.set_keep_log(false);
  const netsim::LinkParams link{SimTime::from_us(1), 155'520'000};
  sim.connect(gen, 0, queue, 0, link);
  sim.connect(queue, 0, sink, 0, link);
  sim.run_until(SimTime::from_us(300));

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t received0 = sink.cells_received();
  sim.run_until(sim.now() + SimTime::from_us(30'000));
  EXPECT_EQ(g_allocations.load(), before)
      << "cell hops allocated in steady state";
  EXPECT_EQ(sink.cells_received() - received0, 10'000u);
  EXPECT_EQ(queue.drops(), 0u);
}

TEST(SchedulerAlloc, KernelTimedMessageCallbacksAreAllocationFree) {
  // One delivery per time point, as RtlBackend::advance_to makes
  // them: the callback captures the whole message and a pointer.
  rtl::Simulator sim;
  rtl::Bus vci(&sim, sim.create_signal("vci", 16, rtl::Logic::L0));
  const auto deliver = [&](int count) {
    for (int i = 0; i < count; ++i) {
      atm::Cell c;
      c.header.vci = static_cast<std::uint16_t>(i + 1);
      sim.schedule_callback(
          SimTime::from_ns(5),
          [bus = &vci, msg = cosim::make_cell_message(0, sim.now(), c)] {
            bus->write_uint(msg.cell->header.vci);
          });
      sim.run_until(sim.now() + SimTime::from_ns(10));
    }
  };
  deliver(100);

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t callbacks0 = sim.stats().callbacks;
  deliver(10'000);
  EXPECT_EQ(g_allocations.load(), before)
      << "timed callbacks allocated in steady state";
  EXPECT_EQ(sim.stats().callbacks - callbacks0, 10'000u);
  EXPECT_EQ(vci.read_uint(), 10'000u);
}

TEST(SchedulerAlloc, KernelClockCyclesAreAllocationFree) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Bus count(&sim, sim.create_signal("count", 16, rtl::Logic::L0));
  sim.add_process("counter", {clk.id()}, [&] {
    if (clk.rose()) count.write_uint((count.read_uint() + 1) & 0xFFFF);
  });
  rtl::ClockGen gen(sim, clk, SimTime::from_ns(50));
  constexpr std::int64_t kWarmCycles = 100;
  constexpr std::int64_t kCycles = 10'000;
  sim.run_until(SimTime::from_ns(50) * kWarmCycles);

  const std::uint64_t before = g_allocations.load();
  sim.run_until(sim.now() + SimTime::from_ns(50) * kCycles);
  EXPECT_EQ(g_allocations.load(), before)
      << "clock cycles allocated in steady state";
  // Rising edges at 0, 50 ns, ..., so both runs end on one.
  EXPECT_EQ(gen.rising_edges(), static_cast<std::uint64_t>(
                                    kWarmCycles + kCycles + 1));
  EXPECT_EQ(count.read_uint(), gen.rising_edges());
}

/// Six Module::clocked processes on one clock: a free-running counter that
/// toggles `tick` every eight cycles, and five followers that copy `tick`
/// and then gate themselves until it changes again.
class GatedFollowers : public rtl::Module {
 public:
  GatedFollowers(rtl::Simulator& sim, rtl::Signal clk)
      : Module(sim, "rig"),
        count_(make_bus("count", 16, rtl::Logic::L0)),
        tick_(make_signal("tick", rtl::Logic::L0)) {
    clocked("count", clk, [this] {
      const std::uint64_t n = (count_.read_uint() + 1) & 0xFFFF;
      count_.write_uint(n);
      tick_.write((n & 8) != 0);
    });
    for (std::size_t i = 0; i < outs_.size(); ++i) {
      outs_[i] = make_signal("out" + std::to_string(i), rtl::Logic::L0);
      const rtl::ProcessId pid =
          clocked("follow" + std::to_string(i), clk, [this, i] {
            outs_[i].write(tick_.read());
            ++follower_runs;
            gate();
          });
      wake_on(pid, {tick_.id()});
    }
  }

  std::uint64_t count() const { return count_.read_uint(); }
  bool outputs_follow_tick() const {
    for (const rtl::Signal& o : outs_) {
      if (o.read() != tick_.read()) return false;
    }
    return true;
  }
  std::uint64_t follower_runs = 0;

 private:
  rtl::Bus count_;
  rtl::Signal tick_;
  std::array<rtl::Signal, 5> outs_;
};

TEST(SchedulerAlloc, GatedClockedModuleCyclesAreAllocationFree) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  GatedFollowers rig(sim, clk);
  rtl::ClockGen gen(sim, clk, SimTime::from_ns(50));
  constexpr std::int64_t kWarmCycles = 100;
  constexpr std::int64_t kCycles = 10'000;
  sim.run_until(SimTime::from_ns(50) * kWarmCycles);

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t skips0 = sim.stats().gated_skips;
  const std::uint64_t runs0 = rig.follower_runs;
  sim.run_until(sim.now() + SimTime::from_ns(50) * kCycles);
  EXPECT_EQ(g_allocations.load(), before)
      << "gated clocked cycles allocated in steady state";
  EXPECT_EQ(rig.count(), gen.rising_edges());
  EXPECT_TRUE(rig.outputs_follow_tick());
  // `tick` changes every 8 cycles; each follower runs once per change and
  // is skipped on the other 7 edges.
  EXPECT_EQ(rig.follower_runs - runs0, 5u * kCycles / 8);
  EXPECT_EQ(sim.stats().gated_skips - skips0, 5u * (kCycles - kCycles / 8));
}

}  // namespace
}  // namespace castanet
