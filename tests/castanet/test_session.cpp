#include "src/castanet/session.hpp"

#include <gtest/gtest.h>

#include "src/castanet/backend.hpp"
#include "src/core/error.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/traffic/processes.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClkPeriod = SimTime::from_ns(50);

atm::Cell mk(std::uint16_t vci, std::uint8_t fill = 0) {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

// ---------------------------------------------------------------------------
// SessionComparator units.

TEST(SessionComparator, IdenticalStreamsClean) {
  SessionComparator cmp;
  cmp.attach(2);
  for (int i = 0; i < 8; ++i) {
    const auto m = make_cell_message(0, SimTime::from_us(i),
                                     mk(1, static_cast<std::uint8_t>(i)));
    cmp.note_response(0, m);
    cmp.note_response(1, m);
  }
  cmp.finish();
  EXPECT_TRUE(cmp.clean());
  EXPECT_EQ(cmp.responses_compared(), 8u);
  EXPECT_EQ(cmp.responses_matched(), 8u);
}

TEST(SessionComparator, FirstDivergenceCarriesBothTimes) {
  SessionComparator cmp;
  cmp.attach(2);
  for (int i = 0; i < 5; ++i) {
    cmp.note_response(0, make_cell_message(3, SimTime::from_us(10 + i),
                                           mk(1, static_cast<std::uint8_t>(i))));
  }
  // Backend 1 agrees on slots 0-1, diverges at slot 2, then keeps
  // disagreeing — only the FIRST divergence must be recorded.
  for (int i = 0; i < 5; ++i) {
    const std::uint8_t fill = i >= 2 ? 0xEE : static_cast<std::uint8_t>(i);
    cmp.note_response(1, make_cell_message(3, SimTime::from_us(20 + i),
                                           mk(1, fill)));
  }
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  const auto d = cmp.first_divergence(3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->backend, 1u);
  EXPECT_EQ(d->stream, 3u);
  EXPECT_EQ(d->index, 2u);
  EXPECT_EQ(d->primary_time, SimTime::from_us(12));
  EXPECT_EQ(d->backend_time, SimTime::from_us(22));
  EXPECT_NE(d->detail.find("payload"), std::string::npos);
}

TEST(SessionComparator, LateJoiningBackendSeesEarlyPrimarySlots) {
  SessionComparator cmp;
  cmp.attach(3);
  // Primary and backend 1 exchange 6 responses before backend 2's first
  // (e.g. a counter readback emitted only at finish) — the early primary
  // slots must still be intact for backend 2 to match against.
  for (int i = 0; i < 6; ++i) {
    const auto m = make_cell_message(0, SimTime::from_us(i),
                                     mk(1, static_cast<std::uint8_t>(i)));
    cmp.note_response(0, m);
    cmp.note_response(1, m);
  }
  for (int i = 0; i < 6; ++i) {
    cmp.note_response(2, make_cell_message(0, SimTime::from_us(50 + i),
                                           mk(1, static_cast<std::uint8_t>(i))));
  }
  cmp.finish();
  EXPECT_TRUE(cmp.clean()) << cmp.report();
  EXPECT_EQ(cmp.responses_matched(), 12u);
}

TEST(SessionComparator, ResponseCountShortfallCaughtAtFinish) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(1), mk(1, 1)));
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(2), mk(1, 2)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(3), mk(1, 1)));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].index, 1u);
  // The missing slot's primary time stamp points at what to debug.
  EXPECT_EQ(cmp.divergences()[0].primary_time, SimTime::from_us(2));
}

TEST(SessionComparator, ExtraResponsesCaughtAtFinish) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(1), mk(1, 1)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(2), mk(1, 1)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(3), mk(1, 9)));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].backend_time, SimTime::from_us(3));
}

TEST(SessionComparator, WordResponsesComparedElementwise) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_word_message(7, SimTime::from_us(1), {120, 0, 120}));
  cmp.note_response(1, make_word_message(7, SimTime::from_us(1), {120, 0, 60}));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_NE(cmp.divergences()[0].detail.find("word 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serial sessions: one testbench, RTL + reference backends.

/// Fig. 5's reuse rig: traffic generator -> gateway -> session, fanned to
/// (a) the RTL cell receiver behind the co-simulation entity and (b) an
/// echo reference model.  `corrupt_from`: the reference starts flipping
/// payload octet 0 at that cell index (divergence-injection for tests).
struct SessionRig {
  netsim::Simulation net;
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClkPeriod};
  hw::CellPort lane = hw::make_cell_port(hdl, "lane");
  hw::CellPortDriver driver{hdl, "drv", clk, lane};
  hw::CellReceiver rx{hdl, "rx", clk, rst, lane};

  netsim::Node& env = net.add_node("env");
  RtlBackend rtl;
  ReferenceBackend refb;
  VerificationSession session;
  traffic::SinkProcess* sink = nullptr;
  std::uint64_t ref_seen = 0;

  SessionRig(ConservativeSync::Params sync, std::uint64_t cells,
             SimTime period, std::uint64_t corrupt_from = ~std::uint64_t{0})
      : rtl("rtl", hdl, sync),
        refb("reference", sync),
        session(net, env, 1, VerificationSession::Params{}) {
    session.attach(rtl);
    session.attach(refb);
    auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                    period);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen", std::move(src), cells);
    sink = &env.add_process<traffic::SinkProcess>("sink");
    net.connect(gen, 0, session.gateway(), 0);
    net.connect(session.gateway(), 0, *sink, 0);

    rtl.entity().register_input(0, 53, [this](const TimedMessage& m) {
      ASSERT_TRUE(m.cell.has_value());
      driver.enqueue(*m.cell);
    });
    hdl.add_process("respond", {rx.cell_valid.id()}, [this] {
      if (rx.cell_valid.rose()) {
        rtl.entity().send_cell_response(
            0, hw::bits_to_cell(rx.cell_out.read(), false));
      }
    });
    refb.register_input(0, 1, [this, corrupt_from](const TimedMessage& m) {
      atm::Cell c = *m.cell;
      if (ref_seen++ >= corrupt_from) c.payload[0] ^= 0xFF;
      refb.respond(0, m.timestamp, c);
    });
  }
};

ConservativeSync::Params sync_params() {
  ConservativeSync::Params p;
  p.policy = SyncPolicy::kGlobalOrder;
  p.clock_period = kClkPeriod;
  return p;
}

TEST(VerificationSession, HonestRigHasZeroDivergences) {
  SessionRig rig(sync_params(), 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  rig.session.comparator().finish();
  // The primary's responses still close the Fig. 2 loop into the network.
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_TRUE(rig.session.comparator().clean())
      << rig.session.comparator().report();
  EXPECT_EQ(rig.session.comparator().responses_matched(), 20u);
  const auto stats = rig.session.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  for (const auto& b : stats.backends) {
    EXPECT_EQ(b.causality_errors, 0u) << b.name;
    EXPECT_GT(b.windows, 0u) << b.name;
    EXPECT_EQ(b.responses, 20u) << b.name;
  }
  EXPECT_EQ(rig.refb.messages_applied(), 20u);
}

TEST(VerificationSession, RepeatedRunsAccumulate) {
  // Two run_until calls on one session: the second resumes where the first
  // stopped, so every cell is delivered and compared exactly once.
  SessionRig rig(sync_params(), 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(60));
  rig.session.run_until(SimTime::from_us(400));
  rig.session.comparator().finish();
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_TRUE(rig.session.comparator().clean())
      << rig.session.comparator().report();
}

TEST(VerificationSession, CorruptedReferenceFlaggedWithStreamAndTime) {
  SessionRig rig(sync_params(), 10, SimTime::from_us(5),
                 /*corrupt_from=*/3);
  rig.session.run_until(SimTime::from_us(250));
  rig.session.comparator().finish();
  SessionComparator& cmp = rig.session.comparator();
  EXPECT_FALSE(cmp.clean());
  // One root cause, one report: the lane freezes after the first hit.
  ASSERT_EQ(cmp.divergences().size(), 1u);
  const auto d = cmp.first_divergence(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->backend, 1u);
  EXPECT_EQ(d->stream, 0u);
  EXPECT_EQ(d->index, 3u);
  // The time stamps bracket where to debug: the reference reacted at the
  // stimulus time, the RTL a processing delay later.
  EXPECT_GT(d->backend_time, SimTime::zero());
  EXPECT_GT(d->primary_time, d->backend_time);
  EXPECT_NE(d->detail.find("payload"), std::string::npos);
}

TEST(VerificationSession, ThreeBackendFanOutIsolatesTheLiar) {
  // Pure-model session: three reference backends (echo primary, honest
  // echo, corrupted echo).  Only the corrupted backend may be flagged.
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  ReferenceBackend b("honest", sync_params());
  ReferenceBackend c("corrupt", sync_params());
  for (ReferenceBackend* r : {&a, &b, &c}) {
    const bool corrupt = r == &c;
    r->register_input(0, 1, [r, corrupt](const TimedMessage& m) {
      atm::Cell cell = *m.cell;
      if (corrupt) cell.header.clp = !cell.header.clp;
      r->respond(0, m.timestamp, cell);
    });
  }
  VerificationSession session(net, env, 1, VerificationSession::Params{});
  session.attach(a);
  session.attach(b);
  session.attach(c);
  session.set_response_handler([](const TimedMessage&) {});
  auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                  SimTime::from_us(5));
  auto& gen = env.add_process<traffic::GeneratorProcess>("gen",
                                                         std::move(src), 12);
  net.connect(gen, 0, session.gateway(), 0);
  session.run_until(SimTime::from_us(200));
  session.comparator().finish();
  SessionComparator& cmp = session.comparator();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].backend, 2u);
  EXPECT_EQ(cmp.divergences()[0].index, 0u);
  const auto stats = session.stats();
  ASSERT_EQ(stats.backends.size(), 3u);
  for (const auto& bs : stats.backends) EXPECT_EQ(bs.causality_errors, 0u);
}

TEST(VerificationSession, FinishHookResponsesReachComparator) {
  // Counter-readback shape: both backends respond only from their finish
  // hooks, after the horizon.
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  ReferenceBackend b("other", sync_params());
  std::uint64_t count_a = 0, count_b = 0;
  a.register_input(0, 1, [&](const TimedMessage&) { ++count_a; });
  b.register_input(0, 1, [&](const TimedMessage&) { ++count_b; });
  a.set_finish_hook([&](ReferenceBackend& r, SimTime at) {
    r.respond_words(0, at, {count_a});
  });
  b.set_finish_hook([&](ReferenceBackend& r, SimTime at) {
    r.respond_words(0, at, {count_b + 1});  // off-by-one "bug"
  });
  VerificationSession session(net, env, 1, VerificationSession::Params{});
  session.attach(a);
  session.attach(b);
  session.set_response_handler([](const TimedMessage&) {});
  auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                  SimTime::from_us(5));
  auto& gen = env.add_process<traffic::GeneratorProcess>("gen",
                                                         std::move(src), 5);
  net.connect(gen, 0, session.gateway(), 0);
  session.run_until(SimTime::from_us(100));
  session.comparator().finish();
  EXPECT_EQ(count_a, 5u);
  ASSERT_EQ(session.comparator().divergences().size(), 1u);
  EXPECT_NE(session.comparator().divergences()[0].detail.find("word 0"),
            std::string::npos);
}

TEST(VerificationSession, AttachAfterRunRejected) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  a.register_input(0, 1, [](const TimedMessage&) {});
  VerificationSession session(net, env, 1, VerificationSession::Params{});
  session.attach(a);
  session.run_until(SimTime::from_us(10));
  ReferenceBackend late("late", sync_params());
  EXPECT_THROW(session.attach(late), Error);
}

}  // namespace
}  // namespace castanet::cosim
