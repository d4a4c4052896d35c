#include "src/traffic/conformance.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/atm/gcra.hpp"

namespace castanet::traffic {
namespace {

TEST(HeaderSweep, CoversVpiRange) {
  const auto v = header_sweep_vectors(SimTime::from_us(3));
  std::set<unsigned> vpis;
  for (const CellArrival& a : v) vpis.insert(a.cell.header.vpi);
  for (unsigned vpi = 0; vpi <= 0xFF; ++vpi) {
    ASSERT_TRUE(vpis.contains(vpi)) << vpi;
  }
}

TEST(HeaderSweep, CoversPtiClpCross) {
  const auto v = header_sweep_vectors(SimTime::from_us(3));
  std::set<std::pair<unsigned, bool>> combos;
  for (const CellArrival& a : v) {
    combos.insert({a.cell.header.pti, a.cell.header.clp});
  }
  EXPECT_GE(combos.size(), 16u);  // 8 PTI x 2 CLP
}

TEST(HeaderSweep, MonotoneTimes) {
  const auto v = header_sweep_vectors(SimTime::from_us(3));
  for (std::size_t i = 1; i < v.size(); ++i) {
    ASSERT_GE(v[i].time, v[i - 1].time);
  }
}

TEST(GcraBoundary, ViolationsDetectedExactlyByReferenceGcra) {
  // The generator promises: exactly the flagged indices are non-conforming
  // under GCRA(increment, limit).  Verify against the independent
  // implementation in atm::Gcra.
  const SimTime inc = SimTime::from_us(10);
  const SimTime lim = SimTime::from_us(25);
  std::vector<std::size_t> expect_bad;
  const auto v = gcra_boundary_vectors({1, 99}, inc, lim, 200, expect_bad);
  ASSERT_EQ(v.size(), 200u);
  EXPECT_FALSE(expect_bad.empty());

  atm::Gcra g(inc, lim);
  std::vector<std::size_t> got_bad;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!g.conforms(v[i].time)) got_bad.push_back(i);
  }
  EXPECT_EQ(got_bad, expect_bad);
}

TEST(GcraBoundary, ZeroToleranceContract) {
  std::vector<std::size_t> bad;
  const auto v =
      gcra_boundary_vectors({1, 1}, SimTime::from_us(5), SimTime::zero(), 60,
                            bad);
  atm::Gcra g(SimTime::from_us(5), SimTime::zero());
  std::vector<std::size_t> got;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!g.conforms(v[i].time)) got.push_back(i);
  }
  EXPECT_EQ(got, bad);
}

}  // namespace
}  // namespace castanet::traffic
