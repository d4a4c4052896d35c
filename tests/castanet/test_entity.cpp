// Direct tests of the co-simulation entity (Fig. 2's C-language entity in
// the HDL simulator), independent of the VerificationSession run loop.
#include "src/castanet/entity.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"
#include "src/rtl/module.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClk = SimTime::from_ns(50);

struct EntityRig {
  rtl::Simulator hdl;
  MessageChannel to_net;
  CosimEntity entity{hdl, to_net,
                     ConservativeSync::Params{SyncPolicy::kGlobalOrder, kClk}};
};

TEST(CosimEntity, AppliesMessagesAtTheirTimeStamps) {
  EntityRig rig;
  std::vector<std::pair<SimTime, std::uint64_t>> applied;
  rig.entity.register_input(0, 1, [&](const TimedMessage& m) {
    applied.emplace_back(rig.hdl.now(), m.words[0]);
  });
  rig.entity.sync().push(make_word_message(0, SimTime::from_us(3), {30}));
  rig.entity.sync().push(make_word_message(0, SimTime::from_us(7), {70}));
  rig.entity.sync().push(make_time_update(SimTime::from_us(20)));
  rig.entity.advance_hdl_to(rig.entity.window() - SimTime::from_ps(1));
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], std::make_pair(SimTime::from_us(3), std::uint64_t{30}));
  EXPECT_EQ(applied[1], std::make_pair(SimTime::from_us(7), std::uint64_t{70}));
  EXPECT_EQ(rig.hdl.now(), SimTime::from_us(20) - SimTime::from_ps(1));
}

TEST(CosimEntity, ResponsesCarryHdlTime) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [&](const TimedMessage&) {
    rig.entity.send_word_response(5, {99});
  });
  rig.entity.sync().push(make_word_message(0, SimTime::from_us(2), {1}));
  rig.entity.sync().push(make_time_update(SimTime::from_us(10)));
  rig.entity.advance_hdl_to(rig.entity.window() - SimTime::from_ps(1));
  const auto m = rig.to_net.receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 5u);
  EXPECT_EQ(m->timestamp, SimTime::from_us(2));  // applied at its stamp
  EXPECT_EQ(m->words[0], 99u);
  EXPECT_EQ(rig.entity.responses_sent(), 1u);
}

TEST(CosimEntity, CellResponsesPreserved) {
  EntityRig rig;
  atm::Cell c;
  c.header.vci = 11;
  rig.entity.send_cell_response(3, c);
  const auto m = rig.to_net.receive();
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(m->cell.has_value());
  EXPECT_EQ(m->cell->header.vci, 11);
}

TEST(CosimEntity, UnregisteredTypeFaults) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_THROW(
      rig.entity.sync().push(make_word_message(9, SimTime::from_us(1), {1})),
      ProtocolError);
}

TEST(CosimEntity, AdvanceBelowNowIsNoop) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  rig.entity.sync().push(make_time_update(SimTime::from_us(5)));
  rig.entity.advance_hdl_to(SimTime::from_us(4));
  const SimTime now = rig.hdl.now();
  rig.entity.advance_hdl_to(SimTime::from_us(1));  // behind: no-op
  EXPECT_EQ(rig.hdl.now(), now);
}

TEST(CosimEntity, WindowTracksOriginatorClock) {
  EntityRig rig;
  rig.entity.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_EQ(rig.entity.window(), SimTime::zero());
  rig.entity.sync().push(make_time_update(SimTime::from_us(4)));
  EXPECT_EQ(rig.entity.window(), SimTime::from_us(4));
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
    rig.entity.sync().push(make_word_message(
        static_cast<MessageType>(i % 4),
        SimTime::from_us(static_cast<std::int64_t>(i + 1)), {0}));
  }
  rig.entity.sync().push(make_time_update(SimTime::from_us(100)));
  rig.entity.advance_hdl_to(rig.entity.window() - SimTime::from_ps(1));
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i % 4);
}

}  // namespace
}  // namespace castanet::cosim
