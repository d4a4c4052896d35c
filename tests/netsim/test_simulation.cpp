#include <gtest/gtest.h>

#include "src/core/error.hpp"

#include "src/netsim/simulation.hpp"

namespace castanet::netsim {
namespace {

class Emitter : public FsmProcess {
 public:
  explicit Emitter(int n) {
    const int go = add_state(
        "go",
        [this, n](const Interrupt&) {
          for (int i = 0; i < n; ++i) {
            Packet p = make_packet();
            p.set_size_bits(424);
            send(0, std::move(p));
          }
        },
        false);
    set_initial(go);
  }
};

class Recorder : public FsmProcess {
 public:
  Recorder() {
    const int idle = add_state("idle", nullptr, false);
    const int rec = add_state(
        "rec",
        [this](const Interrupt& i) {
          arrival_times.push_back(now());
          ids.push_back(i.packet.id());
        },
        true);
    set_initial(idle);
    add_transition(idle, rec, [](const Interrupt& i) {
      return i.kind == InterruptKind::kStream;
    });
    add_transition(rec, idle, nullptr);
  }
  std::vector<SimTime> arrival_times;
  std::vector<std::uint64_t> ids;
};

TEST(Simulation, ZeroDelayLinkDeliversImmediately) {
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& e = n.add_process<Emitter>("e", 1);
  auto& r = n.add_process<Recorder>("r");
  sim.connect(e, 0, r, 0);
  sim.run();
  ASSERT_EQ(r.arrival_times.size(), 1u);
  EXPECT_EQ(r.arrival_times[0], SimTime::zero());
}

TEST(Simulation, PropagationDelayApplied) {
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& e = n.add_process<Emitter>("e", 1);
  auto& r = n.add_process<Recorder>("r");
  sim.connect(e, 0, r, 0, LinkParams{SimTime::from_us(50), 0});
  sim.run();
  ASSERT_EQ(r.arrival_times.size(), 1u);
  EXPECT_EQ(r.arrival_times[0], SimTime::from_us(50));
}

TEST(Simulation, RateLimitedLinkSerializesPackets) {
  // 424-bit cells on a 4.24 Mb/s link: 100 us serialization each.
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& e = n.add_process<Emitter>("e", 3);
  auto& r = n.add_process<Recorder>("r");
  sim.connect(e, 0, r, 0, LinkParams{SimTime::zero(), 4'240'000});
  sim.run();
  ASSERT_EQ(r.arrival_times.size(), 3u);
  EXPECT_EQ(r.arrival_times[0], SimTime::from_us(100));
  EXPECT_EQ(r.arrival_times[1], SimTime::from_us(200));
  EXPECT_EQ(r.arrival_times[2], SimTime::from_us(300));
}

TEST(Simulation, PacketIdsAreUniqueAndOrdered) {
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& e = n.add_process<Emitter>("e", 10);
  auto& r = n.add_process<Recorder>("r");
  sim.connect(e, 0, r, 0);
  sim.run();
  ASSERT_EQ(r.ids.size(), 10u);
  for (std::size_t i = 1; i < r.ids.size(); ++i) {
    EXPECT_EQ(r.ids[i], r.ids[i - 1] + 1);
  }
}

TEST(Simulation, DuplicateNodeNameRejected) {
  Simulation sim;
  sim.add_node("a");
  EXPECT_THROW(sim.add_node("a"), castanet::LogicError);
}

TEST(Simulation, NodeLookup) {
  Simulation sim;
  sim.add_node("alpha");
  EXPECT_EQ(sim.node("alpha").name(), "alpha");
  EXPECT_THROW(sim.node("beta"), castanet::LogicError);
}

TEST(Simulation, DoubleConnectSameStreamRejected) {
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& e = n.add_process<Emitter>("e", 1);
  auto& r1 = n.add_process<Recorder>("r1");
  auto& r2 = n.add_process<Recorder>("r2");
  sim.connect(e, 0, r1, 0);
  EXPECT_THROW(sim.connect(e, 0, r2, 0), castanet::LogicError);
}

TEST(Simulation, SendOnUnconnectedStreamThrows) {
  Simulation sim;
  Node& n = sim.add_node("n");
  n.add_process<Emitter>("e", 1);
  EXPECT_THROW(sim.run(), castanet::LogicError);
}

TEST(Simulation, ProcessNamesAreHierarchical) {
  Simulation sim;
  Node& n = sim.add_node("switch1");
  auto& e = n.add_process<Emitter>("src", 0);
  EXPECT_EQ(e.name(), "switch1.src");
}

TEST(Simulation, RunUntilBoundsTime) {
  Simulation sim;
  Node& n = sim.add_node("n");
  class Ticker : public FsmProcess {
   public:
    Ticker() {
      const int s = add_state(
          "tick",
          [this](const Interrupt&) {
            ++ticks;
            schedule_self(SimTime::from_ms(1), 0);
          },
          false);
      set_initial(s);
      add_transition(s, s, [](const Interrupt& i) {
        return i.kind == InterruptKind::kSelf;
      });
    }
    int ticks = 0;
  };
  auto& t = n.add_process<Ticker>("t");
  sim.run_until(SimTime::from_ms(10));
  EXPECT_EQ(t.ticks, 11);  // begin + 10 self ticks
  EXPECT_EQ(sim.now(), SimTime::from_ms(10));
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim(seed);
    Node& n = sim.add_node("n");
    auto& e = n.add_process<Emitter>("e", 5);
    auto& r = n.add_process<Recorder>("r");
    sim.connect(e, 0, r, 0, LinkParams{SimTime::from_us(10), 1'000'000});
    sim.run();
    return r.arrival_times;
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

}  // namespace
}  // namespace castanet::netsim
