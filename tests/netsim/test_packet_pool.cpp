// PacketPool: slab-pooled packet payloads (dsim scheduler slab idiom) —
// recycling, hit accounting, deep-copy independence across pool and heap
// packets, and integration through Simulation/make_packet.
#include <gtest/gtest.h>

#include "src/core/telemetry.hpp"
#include "src/netsim/packet.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::netsim {
namespace {

TEST(PacketPool, RecyclesPayloadsThroughFreeList) {
  PacketPool pool;
  {
    Packet p = pool.make();
    p.set_field("a", 1.0);  // first payload: a miss carves a slab slot
  }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.free_count(), 1u);
  {
    Packet p = pool.make();
    p.set_field("b", 2.0);  // recycled: a hit, no new slab slot
    EXPECT_FALSE(p.has_field("a"));  // payload was reset between tenants
  }
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.slab_size(), 1u);
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.5);
}

TEST(PacketPool, LazyPayloadOnlyAllocatedWhenUsed) {
  PacketPool pool;
  {
    Packet p = pool.make();  // metadata-only packet: no payload needed
    p.set_id(7);
    p.set_size_bits(424);
  }
  EXPECT_EQ(pool.hits() + pool.misses(), 0u);
  EXPECT_EQ(pool.slab_size(), 0u);
}

TEST(PacketPool, CopyIsDeepAndPooled) {
  PacketPool pool;
  Packet a = pool.make();
  atm::Cell c;
  c.header.vci = 9;
  a.set_cell(c);
  a.set_field("seq", 3.0);

  Packet b = a;  // deep copy from the same pool
  b.mutable_cell().header.vci = 10;
  b.set_field("seq", 4.0);
  EXPECT_EQ(a.cell().header.vci, 9);
  EXPECT_DOUBLE_EQ(a.field("seq"), 3.0);
  EXPECT_EQ(b.cell().header.vci, 10);
  EXPECT_DOUBLE_EQ(b.field("seq"), 4.0);
  EXPECT_EQ(pool.misses(), 2u);  // both payloads slab-backed
}

TEST(PacketPool, MoveTransfersPayloadWithoutPoolTraffic) {
  PacketPool pool;
  Packet a = pool.make();
  a.set_field("x", 1.5);
  const std::uint64_t acquisitions = pool.hits() + pool.misses();

  Packet b = std::move(a);
  EXPECT_TRUE(b.has_field("x"));
  EXPECT_FALSE(a.has_field("x"));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(pool.hits() + pool.misses(), acquisitions);  // no new payloads

  Packet c = pool.make();
  c = std::move(b);
  EXPECT_TRUE(c.has_field("x"));
  EXPECT_EQ(pool.hits() + pool.misses(), acquisitions);
}

TEST(PacketPool, HeapFallbackPacketsInteroperate) {
  PacketPool pool;
  atm::Cell c;
  c.header.vci = 2;
  Packet heap{c};  // constructed outside any pool
  Packet pooled = pool.make();
  pooled = heap;  // copy-assign across ownership domains
  EXPECT_EQ(pooled.cell().header.vci, 2);
  heap.mutable_cell().header.vci = 3;
  EXPECT_EQ(pooled.cell().header.vci, 2);
}

TEST(PacketPool, ToStringKeepsSortedFieldOrder) {
  PacketPool pool;
  Packet p = pool.make();
  p.set_id(5);
  p.set_field("zeta", 1.0);
  p.set_field("alpha", 2.0);
  p.set_field("mid", 3.0);
  const std::string s = p.to_string();
  EXPECT_LT(s.find("alpha=2"), s.find("mid=3"));
  EXPECT_LT(s.find("mid=3"), s.find("zeta=1"));
}

TEST(PacketPool, SimulationReusesPayloadsAcrossSends) {
  // A ping-pong process pair: every delivered packet dies after handling,
  // so from the second send on the payloads come from the free list.
  struct Echo : ProcessModel {
    void handle_interrupt(const Interrupt& intr) override {
      if (intr.kind != InterruptKind::kStream) return;
      ++received;
      if (received < 8) {
        Packet p = make_packet();
        p.set_field("hop", static_cast<double>(received));
        send(0, std::move(p));
      }
    }
    int received = 0;
  };
  Simulation sim;
  Node& n = sim.add_node("n");
  auto& a = n.add_process<Echo>("a");
  auto& b = n.add_process<Echo>("b");
  sim.connect(a, 0, b, 0);
  sim.connect(b, 0, a, 0);
  sim.start();
  sim.scheduler().schedule_in(SimTime::from_us(1), [&a, &sim] {
    Interrupt intr;
    intr.kind = InterruptKind::kStream;
    intr.packet = sim.packet_pool().make();
    intr.packet.set_field("hop", 0.0);
    a.handle_interrupt(intr);
  });
  sim.run();
  EXPECT_EQ(a.received + b.received, 15);  // a stops the chain at 8
  EXPECT_GT(sim.packet_pool().hits(), 0u);
  // Steady state: the slab never needs more than the packets alive at once.
  EXPECT_LE(sim.packet_pool().slab_size(), 4u);
  EXPECT_GT(sim.packet_pool().hit_rate(), 0.5);
}

TEST(PacketPool, PublishesHitRateGauge) {
  telemetry::Hub::instance().reset();
  telemetry::Hub::instance().enable();
  PacketPool pool;
  { Packet p = pool.make(); p.set_field("a", 1.0); }
  { Packet p = pool.make(); p.set_field("a", 1.0); }
  pool.publish_telemetry();
  const telemetry::MetricsSnapshot snap =
      telemetry::Hub::instance().snapshot();
  const telemetry::MetricRow* hit = snap.find("netsim.packet_pool.hit_rate");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, telemetry::MetricRow::Kind::kGauge);
  EXPECT_DOUBLE_EQ(hit->last, 0.5);
  const telemetry::MetricRow* slab =
      snap.find("netsim.packet_pool.slab_payloads");
  ASSERT_NE(slab, nullptr);
  EXPECT_DOUBLE_EQ(slab->last, 1.0);
  telemetry::Hub::instance().reset();
}

}  // namespace
}  // namespace castanet::netsim
