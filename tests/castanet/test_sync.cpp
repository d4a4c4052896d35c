#include "src/castanet/sync.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"
#include "src/core/rng.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClk = SimTime::from_ns(50);

ConservativeSync::Params params(SyncPolicy p) {
  ConservativeSync::Params sp;
  sp.policy = p;
  sp.clock_period = kClk;
  return sp;
}

TimedMessage cell_msg(MessageType t, SimTime ts) {
  return make_cell_message(t, ts, atm::Cell{});
}

TEST(Sync, InputsMustBeDeclaredBeforePush) {
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  s.declare_input(0, 53);
  s.push(cell_msg(0, SimTime::from_us(1)));
  EXPECT_THROW(s.declare_input(1, 10), LogicError);
}

TEST(Sync, UndeclaredTypeRejected) {
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  s.declare_input(0, 53);
  EXPECT_THROW(s.push(cell_msg(7, SimTime::from_us(1))), ProtocolError);
}

TEST(Sync, ZeroDeltaRejected) {
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  EXPECT_THROW(s.declare_input(0, 0), LogicError);
}

TEST(Sync, GlobalOrderWindowIsNetworkTime) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 53);
  EXPECT_EQ(s.window(), SimTime::zero());
  s.push(make_time_update(SimTime::from_us(10)));
  EXPECT_EQ(s.window(), SimTime::from_us(10));
  EXPECT_EQ(s.time_updates_received(), 1u);
}

TEST(Sync, TimeWindowExtendsBeyondHeadsByMinDelta) {
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  s.declare_input(0, 53);  // delta = 53 cycles = 2.65 us
  s.declare_input(1, 100);
  s.push(cell_msg(0, SimTime::from_us(10)));
  // Queue 1 still empty: window limited to announced time.
  EXPECT_EQ(s.window(), SimTime::from_us(10));
  s.push(cell_msg(1, SimTime::from_us(12)));
  // All queues populated: min head (10us) + min delta (53 * 50ns = 2.65us).
  EXPECT_EQ(s.window(), SimTime::from_us(10) + kClk * 53);
}

TEST(Sync, LockstepAdvancesOneClockPerGrant) {
  ConservativeSync s(params(SyncPolicy::kLockstep));
  s.declare_input(0, 53);
  s.push(make_time_update(SimTime::from_us(100)));
  EXPECT_EQ(s.window(), kClk);
  s.take_deliverable(kClk);
  EXPECT_EQ(s.window(), kClk * 2);
  // Never beyond the originator's announced time.
  ConservativeSync tight(params(SyncPolicy::kLockstep));
  tight.declare_input(0, 53);
  tight.push(make_time_update(SimTime::from_ns(20)));
  EXPECT_EQ(tight.window(), SimTime::from_ns(20));
}

TEST(Sync, DeliverableMessagesPoppedInTimeOrder) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 53);
  s.declare_input(1, 53);
  s.push(cell_msg(0, SimTime::from_us(1)));
  s.push(cell_msg(1, SimTime::from_us(2)));
  s.push(cell_msg(0, SimTime::from_us(3)));
  s.push(make_time_update(SimTime::from_us(10)));
  const auto msgs = s.take_deliverable(SimTime::from_us(10));
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].timestamp, SimTime::from_us(1));
  EXPECT_EQ(msgs[1].timestamp, SimTime::from_us(2));
  EXPECT_EQ(msgs[2].timestamp, SimTime::from_us(3));
}

TEST(ConservativeSync, EqualTimestampsKeepQueueOrder) {
  // 24 messages at one time stamp: past std::sort's 16-element insertion
  // sort, where an unstable sort reorders equal keys.
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  for (MessageType t = 0; t < 4; ++t) s.declare_input(t, 53);
  for (MessageType t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      s.push(make_word_message(t, SimTime::from_ns(100), {i}));
    }
  }
  s.push(make_time_update(SimTime::from_us(1)));
  const auto msgs = s.take_deliverable(SimTime::from_us(1));
  ASSERT_EQ(msgs.size(), 24u);
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    EXPECT_EQ(msgs[k].type, k / 6) << "message " << k;
    EXPECT_EQ(msgs[k].words, std::vector<std::uint64_t>{k % 6})
        << "message " << k;
  }
}

TEST(ConservativeSync, RedeclaredDeltaSetsTheWindow) {
  // Re-declaring a type replaces its δ, and the window and the lag bound
  // follow the new minimum even when it rose.
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  s.declare_input(0, 10);
  s.declare_input(0, 50);
  ASSERT_EQ(s.declared_inputs().size(), 1u);
  EXPECT_EQ(s.declared_inputs()[0].delta_cycles, 50u);
  s.push(make_word_message(0, SimTime::from_ns(1000), {1}));
  s.push(make_time_update(SimTime::from_ns(1000)));
  EXPECT_EQ(s.window(), SimTime::from_ns(1000) + kClk * 50);  // 3500 ns
  // Inside network time + 50 cycles: not a lag-invariant violation.
  EXPECT_NO_THROW(s.note_hdl_time(SimTime::from_ns(3000)));
  EXPECT_THROW(s.note_hdl_time(SimTime::from_ns(3600)), ProtocolError);
}

TEST(Sync, MessagesAtOrAfterBoundStayQueued) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 53);
  s.push(cell_msg(0, SimTime::from_us(5)));
  const auto msgs = s.take_deliverable(SimTime::from_us(5));
  EXPECT_TRUE(msgs.empty());  // strictly-less semantics
  const auto later = s.take_deliverable(SimTime::from_us(5) +
                                        SimTime::from_ps(1));
  EXPECT_EQ(later.size(), 1u);
}

TEST(Sync, CausalityErrorDetected) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 53);
  s.push(make_time_update(SimTime::from_us(10)));
  s.take_deliverable(SimTime::from_us(10));
  EXPECT_THROW(s.push(cell_msg(0, SimTime::from_us(9))), ProtocolError);
  EXPECT_EQ(s.causality_errors(), 1u);
}

TEST(Sync, HdlLagInvariantEnforced) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 53);
  s.push(make_time_update(SimTime::from_us(10)));
  s.take_deliverable(SimTime::from_us(10));
  EXPECT_NO_THROW(s.note_hdl_time(SimTime::from_us(9)));
  EXPECT_NO_THROW(s.note_hdl_time(SimTime::from_us(10)));
  EXPECT_THROW(s.note_hdl_time(SimTime::from_us(100)), ProtocolError);
  EXPECT_GT(s.max_lag_seconds(), 0.0);
}

TEST(Sync, WindowIsMonotone) {
  ConservativeSync s(params(SyncPolicy::kTimeWindow));
  s.declare_input(0, 10);
  SimTime prev = s.window();
  for (int i = 1; i <= 50; ++i) {
    s.push(cell_msg(0, SimTime::from_us(i)));
    const SimTime w = s.window();
    EXPECT_GE(w, prev);
    prev = w;
    if (i % 5 == 0) s.take_deliverable(w);
  }
}

TEST(Sync, WindowsGrantedCounted) {
  ConservativeSync s(params(SyncPolicy::kGlobalOrder));
  s.declare_input(0, 10);
  s.push(make_time_update(SimTime::from_us(1)));
  s.take_deliverable(s.window());
  s.take_deliverable(s.window());  // no growth: not a new grant
  s.push(make_time_update(SimTime::from_us(2)));
  s.take_deliverable(s.window());
  EXPECT_EQ(s.windows_granted(), 2u);
}

// Property sweep: under each policy, for a CBR message stream with spacing
// >= delta, the protocol never throws, the window never exceeds
// network-time + min-delta, and everything is eventually deliverable.
class SyncPolicySweep : public ::testing::TestWithParam<SyncPolicy> {};

TEST_P(SyncPolicySweep, CbrStreamInvariants) {
  ConservativeSync s(params(GetParam()));
  const std::uint64_t delta = 53;
  s.declare_input(0, delta);
  std::size_t delivered = 0;
  SimTime t = SimTime::zero();
  const SimTime spacing = kClk * 53;  // exactly one cell time
  for (int i = 0; i < 200; ++i) {
    t += spacing;
    s.push(cell_msg(0, t));
    const SimTime w = s.window();
    ASSERT_LE(w, s.network_time() + kClk * static_cast<std::int64_t>(delta));
    delivered += s.take_deliverable(w).size();
  }
  // Drain with a final time update far in the future.  Lockstep needs one
  // grant per clock period, so iterate until everything arrived.
  s.push(make_time_update(t + SimTime::from_ms(1)));
  for (int i = 0; i < 2'000'000 && delivered < 200; ++i) {
    delivered += s.take_deliverable(s.window()).size();
  }
  EXPECT_EQ(delivered, 200u);
  EXPECT_EQ(s.causality_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, SyncPolicySweep,
                         ::testing::Values(SyncPolicy::kTimeWindow,
                                           SyncPolicy::kGlobalOrder,
                                           SyncPolicy::kLockstep));

// Fuzz property: random multi-queue loads honouring the per-queue spacing
// assumption; under every policy the protocol must deliver everything, keep
// the window monotone and commit zero causality errors.
struct FuzzParams {
  SyncPolicy policy;
  std::uint64_t seed;
};

class SyncFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(SyncFuzz, RandomLoadInvariants) {
  const auto [policy, seed] = GetParam();
  Rng rng(seed);
  ConservativeSync s(params(policy));
  constexpr std::size_t kTypes = 3;
  const std::uint64_t deltas[kTypes] = {10, 53, 200};
  for (std::size_t t = 0; t < kTypes; ++t) {
    s.declare_input(static_cast<MessageType>(t), deltas[t]);
  }
  // Build a globally-ordered merge of per-queue streams with random gaps
  // >= delta_j * clock.
  std::vector<TimedMessage> load;
  SimTime next[kTypes];
  for (std::size_t t = 0; t < kTypes; ++t) {
    next[t] = kClk * static_cast<std::int64_t>(rng.uniform_int(1, 100));
  }
  for (int i = 0; i < 3000; ++i) {
    // Pick the queue whose next send is earliest (global time order).
    std::size_t t = 0;
    for (std::size_t k = 1; k < kTypes; ++k) {
      if (next[k] < next[t]) t = k;
    }
    load.push_back(cell_msg(static_cast<MessageType>(t), next[t]));
    next[t] += kClk * static_cast<std::int64_t>(
                          deltas[t] + rng.uniform_int(0, 500));
  }
  std::size_t delivered = 0;
  SimTime prev_window = SimTime::zero();
  for (const TimedMessage& m : load) {
    s.push(m);
    const SimTime w = s.window();
    ASSERT_GE(w, prev_window);  // monotone
    prev_window = w;
    delivered += s.take_deliverable(w).size();
  }
  const SimTime end = load.back().timestamp + SimTime::from_sec(1);
  s.push(make_time_update(end));
  for (int i = 0; i < 30'000'000 && delivered < load.size(); ++i) {
    delivered += s.take_deliverable(s.window()).size();
  }
  EXPECT_EQ(delivered, load.size());
  EXPECT_EQ(s.causality_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, SyncFuzz,
    ::testing::Values(FuzzParams{SyncPolicy::kTimeWindow, 1},
                      FuzzParams{SyncPolicy::kTimeWindow, 99},
                      FuzzParams{SyncPolicy::kGlobalOrder, 1},
                      FuzzParams{SyncPolicy::kGlobalOrder, 99},
                      FuzzParams{SyncPolicy::kLockstep, 7}));

TEST(MessageChannel, FifoAndCounters) {
  MessageChannel ch;
  ch.send(cell_msg(0, SimTime::from_us(1)));
  ch.send(cell_msg(1, SimTime::from_us(2)));
  const auto m1 = ch.receive();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(m1->type, 0u);
  const auto m2 = ch.receive();
  EXPECT_EQ(m2->type, 1u);
  EXPECT_FALSE(ch.receive().has_value());
  EXPECT_EQ(ch.messages_sent(), 2u);
}

}  // namespace
}  // namespace castanet::cosim
