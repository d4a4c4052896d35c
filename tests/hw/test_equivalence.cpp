// Randomized equivalence between RTL devices and their independent
// cell-level reference models — the co-verification relation itself, tested
// as a property over seeds (TEST_P).  Any divergence here is exactly the
// class of defect the CASTANET flow exists to catch, so these suites guard
// the guard.
#include <gtest/gtest.h>

#include "src/core/rng.hpp"
#include "src/hw/accounting.hpp"
#include "src/hw/reference.hpp"
#include "tests/hw/hw_fixture.hpp"

namespace castanet::hw {
namespace {

using testing::ClockedTest;

class SeededEquivalence : public ClockedTest,
                          public ::testing::WithParamInterface<std::uint64_t> {
};

// --- accounting RTL vs AccountingRef -----------------------------------------

TEST_P(SeededEquivalence, AccountingMatchesReferenceOnRandomTraffic) {
  Rng rng(GetParam() * 7919 + 13);
  CellPort snoop = make_cell_port(sim, "snoop");
  CellPortDriver driver(sim, "drv", clk, snoop);
  AccountingUnit acct(sim, "acct", clk, rst, snoop, 8);
  AccountingRef ref(8);
  for (int t = 0; t < 3; ++t) {
    const Tariff tariff{static_cast<std::uint16_t>(rng.uniform_int(1, 9)),
                        static_cast<std::uint16_t>(rng.uniform_int(0, 4))};
    acct.set_tariff(static_cast<std::uint8_t>(t), tariff);
    ref.set_tariff(static_cast<std::uint8_t>(t), tariff);
  }
  for (std::uint16_t v = 0; v < 4; ++v) {
    const auto tariff_class = static_cast<std::uint8_t>(v % 3);
    acct.bind_connection({1, static_cast<std::uint16_t>(100 + v)}, v,
                         tariff_class);
    ref.bind_connection({1, static_cast<std::uint16_t>(100 + v)}, v,
                        tariff_class);
  }
  const int cells = 120;
  for (int i = 0; i < cells; ++i) {
    atm::Cell c;
    c.header.vpi = 1;
    // 1-in-8 cells on an unknown VC.
    c.header.vci = static_cast<std::uint16_t>(
        rng.bernoulli(0.125) ? 999 : 100 + rng.uniform_int(0, 3));
    c.header.clp = rng.bernoulli(0.3);
    c.payload[0] = static_cast<std::uint8_t>(i);
    driver.enqueue(c);
    ref.observe(c);
  }
  run_cycles(static_cast<std::uint64_t>(cells) * 53 + 10);
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(acct.count(v), ref.count(v)) << "conn " << v;
    EXPECT_EQ(acct.clp1_count(v), ref.clp1_count(v)) << "conn " << v;
    EXPECT_EQ(acct.charge(v), ref.charge(v)) << "conn " << v;
  }
  EXPECT_EQ(acct.unknown_vc_seen(), ref.unknown_vc_seen());
  EXPECT_EQ(acct.cells_observed(), ref.cells_observed());
}

// --- cell codec: random cells survive serial transport -----------------------

TEST_P(SeededEquivalence, RandomCellsSurviveSerialRoundTrip) {
  Rng rng(GetParam() * 31 + 5);
  CellPort lane = make_cell_port(sim, "lane");
  CellPortDriver drv(sim, "drv", clk, lane);
  CellPortMonitor mon(sim, "mon", clk, lane);
  std::vector<atm::Cell> sent;
  for (int i = 0; i < 30; ++i) {
    atm::Cell c;
    c.header.gfc = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    c.header.vpi = static_cast<std::uint16_t>(rng.uniform_int(0, 255));
    c.header.vci = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    c.header.pti = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
    c.header.clp = rng.bernoulli(0.5);
    for (auto& b : c.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    sent.push_back(c);
    drv.enqueue(c);
  }
  run_cycles(30 * 53 + 5);
  ASSERT_EQ(mon.cells().size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(mon.cells()[i], sent[i]) << "cell " << i;
  }
  EXPECT_EQ(mon.hec_discards(), 0u);
  EXPECT_EQ(mon.framing_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededEquivalence,
                         ::testing::Values(1, 2, 3, 42, 1999, 20260707));

}  // namespace
}  // namespace castanet::hw
