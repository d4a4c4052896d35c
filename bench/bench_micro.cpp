// Micro-benchmarks (google-benchmark) for the kernel primitives every
// experiment builds on: event-list operations, delta cycles, clocked
// process fan-out, HEC/CRC, GCRA, cell codecs and board pin packing.  The
// RTL cases run one clock period per iteration, so their time is ns per
// cycle.
#include <benchmark/benchmark.h>

#include <string>

#include "src/atm/aal5.hpp"
#include "src/atm/cell.hpp"
#include "src/atm/gcra.hpp"
#include "src/atm/hec.hpp"
#include "src/board/config.hpp"
#include "src/dsim/scheduler.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/rtl/module.hpp"

using namespace castanet;

namespace {

void BM_SchedulerScheduleExecute(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(SimTime::from_ns(i % 97), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleExecute);

/// An event of the hold model: when it runs it re-arms once at now + 1..2000
/// ns, so the pending count stays where the benchmark put it.
struct HoldEvent {
  Scheduler* s;
  std::uint64_t* x;
  void operator()() const {
    *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
    s->schedule_in(
        SimTime::from_ns(1 + static_cast<std::int64_t>((*x >> 33) % 2000)),
        HoldEvent{s, x});
  }
};

/// The event list at the size the workloads use: `range(0)` pending events
/// (the four perfbench workloads hold at most 9), one step per iteration,
/// so the time is ns per executed-and-re-armed event.
void BM_SchedulerHold(benchmark::State& state) {
  Scheduler s;
  std::uint64_t x = 1;
  for (std::int64_t i = 0; i < state.range(0); ++i) HoldEvent{&s, &x}();
  for (auto _ : state) benchmark::DoNotOptimize(s.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerHold)->Arg(8);

void BM_RtlClockCycle(benchmark::State& state) {
  rtl::Simulator sim;
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Bus count(&sim, sim.create_signal("count", 16, rtl::Logic::L0));
  sim.add_process("counter", {clk.id()}, [&] {
    if (sim.rose(clk.id())) {
      count.write_uint((count.read_uint() + 1) & 0xFFFF);
    }
  });
  rtl::ClockGen gen(sim, clk, SimTime::from_ns(50));
  for (auto _ : state) {
    sim.run_until(sim.now() + SimTime::from_ns(50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlClockCycle);

/// switch_coverify's clock shape: 45 Module::clocked processes on one
/// clock, 40 of them parked by an activity gate that never re-arms, so each
/// rising edge wakes 45 and runs 5.
class ClockedFanout : public rtl::Module {
 public:
  explicit ClockedFanout(rtl::Simulator& sim)
      : Module(sim, "fanout"),
        clk_(make_signal("clk", rtl::Logic::L0)),
        idle_(make_signal("idle", rtl::Logic::L0)) {
    for (int i = 0; i < 45; ++i) {
      const std::string n = std::to_string(i);
      if (i % 9 == 0) {
        const rtl::Bus q = make_bus("q" + n, 16, rtl::Logic::L0);
        clocked("count" + n, clk_,
                [q] { q.write_uint((q.read_uint() + 1) & 0xFFFF); });
      } else {
        const rtl::ProcessId pid = clocked("idle" + n, clk_, [this] { gate(); });
        wake_on(pid, {idle_.id()});
      }
    }
  }
  rtl::Signal clk() const { return clk_; }

 private:
  rtl::Signal clk_;
  rtl::Signal idle_;
};

void BM_RtlClockedFanout(benchmark::State& state) {
  rtl::Simulator sim;
  ClockedFanout rig(sim);
  rtl::ClockGen gen(sim, rig.clk(), SimTime::from_ns(50));
  for (auto _ : state) {
    sim.run_until(sim.now() + SimTime::from_ns(50));
    benchmark::DoNotOptimize(sim.stats().process_activations);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlClockedFanout);

void BM_HecCompute(benchmark::State& state) {
  std::uint8_t hdr[4] = {0x12, 0x34, 0x56, 0x78};
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::compute_hec(hdr));
    hdr[0] = static_cast<std::uint8_t>(hdr[0] + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HecCompute);

void BM_HecCheckCorrect(benchmark::State& state) {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = 100;
  auto bytes = c.to_bytes();
  int bit = 0;
  for (auto _ : state) {
    std::uint8_t hdr[5] = {bytes[0], bytes[1], bytes[2], bytes[3], bytes[4]};
    hdr[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    benchmark::DoNotOptimize(atm::check_and_correct(hdr));
    bit = (bit + 1) % 40;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HecCheckCorrect);

void BM_Aal5Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> frame(1500, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atm::aal5_crc32(frame.data(), frame.size()));
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_Aal5Crc32);

void BM_GcraConforms(benchmark::State& state) {
  atm::Gcra g(SimTime::from_us(10), SimTime::from_us(3));
  SimTime t;
  for (auto _ : state) {
    t += SimTime::from_us(10);
    benchmark::DoNotOptimize(g.conforms(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GcraConforms);

void BM_CellSerialize(benchmark::State& state) {
  atm::Cell c;
  c.header.vpi = 7;
  c.header.vci = 777;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.to_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellSerialize);

void BM_CellToBitsRoundTrip(benchmark::State& state) {
  atm::Cell c;
  c.header.vci = 42;
  for (auto _ : state) {
    const rtl::LogicVector v = hw::cell_to_bits(c);
    benchmark::DoNotOptimize(hw::bits_to_cell(v, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellToBitsRoundTrip);

void BM_LogicVectorResolve(benchmark::State& state) {
  const rtl::LogicVector a(424, rtl::Logic::Z);
  const rtl::LogicVector b(424, rtl::Logic::L1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogicVectorResolve);

void BM_BoardPackUnpack(benchmark::State& state) {
  const std::vector<board::LaneSlice> slices = {{0, 0, 8}, {1, 0, 8}};
  std::uint8_t lanes[board::kByteLanes] = {};
  std::uint64_t v = 0;
  for (auto _ : state) {
    board::pack_slices(slices, v, lanes);
    benchmark::DoNotOptimize(board::unpack_slices(slices, lanes));
    ++v;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoardPackUnpack);

}  // namespace

BENCHMARK_MAIN();
