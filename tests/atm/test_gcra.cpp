#include "src/atm/gcra.hpp"

#include <gtest/gtest.h>

namespace castanet::atm {
namespace {

const SimTime T = SimTime::from_us(10);   // increment (1/rate)
const SimTime tau = SimTime::from_us(3);  // CDV tolerance

TEST(Gcra, FirstCellAlwaysConforms) {
  Gcra g(T, tau);
  EXPECT_TRUE(g.conforms(SimTime::from_sec(1)));
  EXPECT_EQ(g.conforming_count(), 1u);
}

TEST(Gcra, ExactRateConforms) {
  Gcra g(T, tau);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.conforms(t)) << "cell " << i;
    t += T;
  }
  EXPECT_EQ(g.nonconforming_count(), 0u);
}

TEST(Gcra, SlightlySlowAlwaysConforms) {
  Gcra g(T, tau);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.conforms(t));
    t += T + SimTime::from_ns(100);
  }
}

TEST(Gcra, EarlyWithinToleranceConforms) {
  Gcra g(T, tau);
  EXPECT_TRUE(g.conforms(SimTime::zero()));  // TAT = T
  // Next cell at T - tau: exactly at the tolerance edge -> conforming.
  EXPECT_TRUE(g.conforms(T - tau));
}

TEST(Gcra, EarlyBeyondToleranceRejected) {
  Gcra g(T, tau);
  EXPECT_TRUE(g.conforms(SimTime::zero()));  // TAT = T
  // One ps earlier than the tolerance edge -> non-conforming.
  EXPECT_FALSE(g.conforms(T - tau - SimTime::from_ps(1)));
  EXPECT_EQ(g.nonconforming_count(), 1u);
}

TEST(Gcra, NonConformingCellDoesNotConsumeCredit) {
  Gcra g(T, tau);
  EXPECT_TRUE(g.conforms(SimTime::zero()));
  const SimTime tat_before = g.tat();
  EXPECT_FALSE(g.conforms(SimTime::from_ns(1)));  // way too early
  EXPECT_EQ(g.tat(), tat_before);                 // TAT unchanged
  // A later, legitimate cell still conforms.
  EXPECT_TRUE(g.conforms(T));
}

TEST(Gcra, BurstAtPeakLimitedByTau) {
  // With tau = 3*T, a fresh GCRA admits a back-to-back burst of 1 + 3 cells
  // at time 0... spacing 0 means each consumes T of credit until tau used.
  Gcra g(T, T * 3);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (g.conforms(SimTime::zero())) ++admitted;
  }
  EXPECT_EQ(admitted, 4);  // MBS = 1 + floor(tau/T) = 4
}

TEST(Gcra, IdlePeriodRestoresCredit) {
  Gcra g(T, tau);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(g.conforms(t));
    t += T;
  }
  // Long idle: TAT is far in the past; a burst of tolerance size passes.
  t += SimTime::from_ms(10);
  EXPECT_TRUE(g.conforms(t));
  // tau < T: a second back-to-back cell at the same instant must fail.
  EXPECT_FALSE(g.conforms(t));
}

TEST(Gcra, ResetRestoresVirginState) {
  Gcra g(T, tau);
  EXPECT_TRUE(g.conforms(SimTime::zero()));
  EXPECT_FALSE(g.conforms(SimTime::from_ns(1)));
  g.reset();
  EXPECT_EQ(g.conforming_count(), 0u);
  EXPECT_EQ(g.nonconforming_count(), 0u);
  EXPECT_TRUE(g.conforms(SimTime::from_ns(1)));
}

// Parameterized property: for any (T, tau), a CBR stream at exactly rate
// 1/T never violates, and a stream at rate 1/(T - d) for d > tau/N
// eventually violates.
struct GcraParams {
  std::int64_t t_us;
  std::int64_t tau_us;
};

class GcraSweep : public ::testing::TestWithParam<GcraParams> {};

TEST_P(GcraSweep, CbrAtContractRateConforms) {
  const auto p = GetParam();
  Gcra g(SimTime::from_us(p.t_us), SimTime::from_us(p.tau_us));
  SimTime t = SimTime::zero();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(g.conforms(t));
    t += SimTime::from_us(p.t_us);
  }
}

TEST_P(GcraSweep, SustainedOverrateEventuallyViolates) {
  const auto p = GetParam();
  Gcra g(SimTime::from_us(p.t_us), SimTime::from_us(p.tau_us));
  SimTime t = SimTime::zero();
  bool violated = false;
  // 10% faster than contract; enough cells that the TAT drift exceeds even
  // the largest tau in the sweep (drift per cell = T/10).
  const SimTime gap = SimTime::from_ps(p.t_us * 1'000'000 * 9 / 10);
  for (int i = 0; i < 3000 && !violated; ++i) {
    violated = !g.conforms(t);
    t += gap;
  }
  EXPECT_TRUE(violated);
}

INSTANTIATE_TEST_SUITE_P(
    Contracts, GcraSweep,
    ::testing::Values(GcraParams{10, 0}, GcraParams{10, 3},
                      GcraParams{10, 25}, GcraParams{100, 10},
                      GcraParams{3, 300}, GcraParams{1, 1}));

}  // namespace
}  // namespace castanet::atm
