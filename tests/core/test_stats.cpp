#include "src/core/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace castanet {
namespace {

TEST(SampleStat, EmptyIsZero) {
  SampleStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SampleStat, EmptyMinMaxAreNaN) {
  // An empty stat has no extrema; a fake 0.0 would corrupt downstream
  // aggregation (e.g. "min lag 0s" from a backend that never reported).
  SampleStat s;
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.record(-2.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), -2.0);
}

TEST(SampleStat, SingleSample) {
  SampleStat s;
  s.record(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleStat, KnownMoments) {
  SampleStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.record(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleStat, NegativeValues) {
  SampleStat s;
  s.record(-3.0);
  s.record(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(TimeAverageStat, ConstantValue) {
  TimeAverageStat s;
  s.set(0.0, 4.0);
  EXPECT_DOUBLE_EQ(s.average(10.0), 4.0);
}

TEST(TimeAverageStat, PiecewiseConstant) {
  TimeAverageStat s;
  s.set(0.0, 0.0);
  s.set(2.0, 10.0);  // value 0 over [0,2)
  s.set(4.0, 0.0);   // value 10 over [2,4)
  // Over [0,10]: (0*2 + 10*2 + 0*6)/10 = 2.
  EXPECT_DOUBLE_EQ(s.average(10.0), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.current(), 0.0);
}

TEST(TimeAverageStat, NeverSetIsZero) {
  TimeAverageStat s;
  EXPECT_DOUBLE_EQ(s.average(5.0), 0.0);
}

TEST(TimeAverageStat, QueryBeforeStartIsZero) {
  TimeAverageStat s;
  s.set(5.0, 3.0);
  EXPECT_DOUBLE_EQ(s.average(5.0), 0.0);
  EXPECT_DOUBLE_EQ(s.average(4.0), 0.0);
}

}  // namespace
}  // namespace castanet
