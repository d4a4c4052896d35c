// Direct tests of the co-simulation entity (Fig. 2's C-language entity in
// the HDL simulator) on its RtlBackend, independent of the
// VerificationSession run loop: messages go in through push(), the kernel
// advances through catch_up(), responses come out through
// drain_responses().
#include "src/castanet/entity.hpp"

#include <gtest/gtest.h>

#include "src/castanet/backend.hpp"
#include "src/core/error.hpp"
#include "src/rtl/module.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClk = SimTime::from_ns(50);

struct EntityRig {
  rtl::Simulator hdl;
  RtlBackend rtl{"rtl", hdl,
                 ConservativeSync::Params{SyncPolicy::kGlobalOrder, kClk}};
  CosimEntity& entity = rtl.entity();

  std::vector<TimedMessage> drain() {
    std::vector<TimedMessage> out;
    rtl.drain_responses(out);
    return out;
  }
};

TEST(CosimEntity, AppliesMessagesAtTheirTimeStamps) {
  EntityRig rig;
  std::vector<std::pair<SimTime, std::uint64_t>> applied;
  rig.entity.register_input(0, 1, [&](const TimedMessage& m) {
    applied.emplace_back(rig.hdl.now(), m.words[0]);
  });
  rig.rtl.push(make_word_message(0, SimTime::from_us(3), {30}));
  rig.rtl.push(make_word_message(0, SimTime::from_us(7), {70}));
  rig.rtl.push(make_time_update(SimTime::from_us(20)));
  rig.rtl.catch_up(SimTime::from_us(20));
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], std::make_pair(SimTime::from_us(3), std::uint64_t{30}));
  EXPECT_EQ(applied[1], std::make_pair(SimTime::from_us(7), std::uint64_t{70}));
  EXPECT_EQ(rig.hdl.now(), SimTime::from_us(20) - SimTime::from_ps(1));
  EXPECT_EQ(rig.rtl.now(), rig.hdl.now());
}

TEST(CosimEntity, ResponsesCarryHdlTime) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [&](const TimedMessage&) {
    rig.entity.send_word_response(5, {99});
  });
  rig.rtl.push(make_word_message(0, SimTime::from_us(2), {1}));
  rig.rtl.push(make_time_update(SimTime::from_us(10)));
  rig.rtl.catch_up(SimTime::from_us(10));
  const std::vector<TimedMessage> out = rig.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, 5u);
  EXPECT_EQ(out[0].timestamp, SimTime::from_us(2));  // applied at its stamp
  EXPECT_EQ(out[0].words[0], 99u);
  EXPECT_TRUE(rig.drain().empty());  // drained once
}

TEST(CosimEntity, CellResponsesPreserved) {
  EntityRig rig;
  atm::Cell c;
  c.header.vci = 11;
  rig.entity.send_cell_response(3, c);
  const std::vector<TimedMessage> out = rig.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, 3u);
  ASSERT_TRUE(out[0].cell.has_value());
  EXPECT_EQ(out[0].cell->header.vci, 11);
}

TEST(CosimEntity, UnregisteredTypeFaults) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_THROW(rig.rtl.push(make_word_message(9, SimTime::from_us(1), {1})),
               ProtocolError);
}

TEST(CosimEntity, CatchUpBelowNowIsNoop) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  rig.rtl.push(make_time_update(SimTime::from_us(5)));
  rig.rtl.catch_up(SimTime::from_us(4));
  const SimTime now = rig.hdl.now();
  EXPECT_EQ(now, SimTime::from_us(4));
  rig.rtl.catch_up(SimTime::from_us(1));  // behind: no-op, counted as a stall
  EXPECT_EQ(rig.hdl.now(), now);
  EXPECT_EQ(rig.rtl.sync().lookahead_stalls(), 1u);
}

TEST(CosimEntity, WindowTracksOriginatorClock) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_EQ(rig.rtl.window(), SimTime::zero());
  rig.rtl.push(make_time_update(SimTime::from_us(4)));
  EXPECT_EQ(rig.rtl.window(), SimTime::from_us(4));
}

TEST(CosimEntity, ManyTypesInterleaved) {
  EntityRig rig;
  std::vector<int> order;
  for (MessageType t = 0; t < 4; ++t) {
    rig.entity.register_input(t, 1, [&order, t](const TimedMessage&) {
      order.push_back(static_cast<int>(t));
    });
  }
  // Interleave across types in increasing time.
  for (int i = 0; i < 12; ++i) {
    rig.rtl.push(make_word_message(
        static_cast<MessageType>(i % 4),
        SimTime::from_us(static_cast<std::int64_t>(i + 1)), {0}));
  }
  rig.rtl.push(make_time_update(SimTime::from_us(100)));
  rig.rtl.catch_up(SimTime::from_us(100));
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i % 4);
}

}  // namespace
}  // namespace castanet::cosim
