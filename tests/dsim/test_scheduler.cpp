#include "src/dsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/error.hpp"

namespace castanet {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ns(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_ns(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_ns(30));
}

TEST(Scheduler, EqualTimeFifoWithinPriority) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ns(5);
  s.schedule_at(t, [&] { order.push_back(1); });
  s.schedule_at(t, [&] { order.push_back(2); });
  s.schedule_at(t, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(SimTime::from_ns(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::from_ns(5), [] {}), ProtocolError);
}

TEST(Scheduler, SchedulingAtCurrentTimeAllowed) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(10), [&] {
    s.schedule_at(s.now(), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilStopsAtLimitInclusive) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(10), [&] { ++fired; });
  s.schedule_at(SimTime::from_ns(20), [&] { ++fired; });
  s.schedule_at(SimTime::from_ns(30), [&] { ++fired; });
  EXPECT_EQ(s.run_until(SimTime::from_ns(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::from_ns(20));
  EXPECT_FALSE(s.empty());
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.run_until(SimTime::from_us(5));
  EXPECT_EQ(s.now(), SimTime::from_us(5));
}

TEST(Scheduler, RunUntilStaleLimitIsNoOp) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(20), [&] { ++fired; });
  s.run_until(SimTime::from_ns(10));
  // A limit in the past executes nothing and never moves time backwards.
  EXPECT_EQ(s.run_until(SimTime::from_ns(5)), 0u);
  EXPECT_EQ(s.now(), SimTime::from_ns(10));
  EXPECT_EQ(fired, 0);
  // Forward progress still works afterwards.
  EXPECT_EQ(s.run_until(SimTime::from_ns(20)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(SimTime::from_ns(10), [&] {
    s.schedule_in(SimTime::from_ns(7), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, SimTime::from_ns(17));
}

TEST(Scheduler, NextEventTimeAndEmpty) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::max());
  s.schedule_at(SimTime::from_ns(8), [] {});
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::from_ns(8));
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::max());
}

TEST(Scheduler, AdvanceToRespectsPendingEvents) {
  Scheduler s;
  s.schedule_at(SimTime::from_ns(10), [] {});
  s.advance_to(SimTime::from_ns(10));
  EXPECT_EQ(s.now(), SimTime::from_ns(10));
  EXPECT_THROW(s.advance_to(SimTime::from_ns(5)), LogicError);
  EXPECT_THROW(s.advance_to(SimTime::from_ns(20)), LogicError);
}

TEST(Scheduler, CountersTrackActivity) {
  Scheduler s;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(SimTime::from_ns(i), [] {});
  }
  s.schedule_at(SimTime::from_ns(9), [] {});
  s.run_until(SimTime::from_ns(5));
  EXPECT_EQ(s.events_scheduled(), 6u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Scheduler, RunWithMaxEventsStops) {
  Scheduler s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(SimTime::from_ns(i), [&] { ++fired; });
  }
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, CascadingEventsAtSameTime) {
  // An event scheduling another event at the same time must execute it in
  // the same run, after all earlier-scheduled same-time events.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ns(1), [&] {
    order.push_back(1);
    s.schedule_at(SimTime::from_ns(1), [&] { order.push_back(3); });
  });
  s.schedule_at(SimTime::from_ns(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, FarFutureEventsRunInTimeOrder) {
  // Events up to 200 s out, scheduled out of order, still execute in exact
  // time order.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_us(100'000'000), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_us(50'000'000), [&] { order.push_back(2); });
  s.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_us(200'000'000), [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), SimTime::from_us(200'000'000));
}

TEST(Scheduler, NearEventScheduledAfterFarOnesStillRunsFirst) {
  // A near event inserted after a far-future one, and the event it
  // schedules, both run before the far one.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_us(1'000'000), [&] { order.push_back(2); });
  s.schedule_at(SimTime::from_ns(5), [&] {
    order.push_back(1);
    s.schedule_at(s.now() + SimTime::from_ns(1), [&] { order.push_back(11); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(Scheduler, StressManyEventsStayOrdered) {
  Scheduler s;
  SimTime last = SimTime::zero();
  bool monotone = true;
  // Pseudo-random times, fixed pattern.
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    s.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(x % 100000)),
                  [&] {
                    if (s.now() < last) monotone = false;
                    last = s.now();
                  });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.events_executed(), 5000u);
}

}  // namespace
}  // namespace castanet
