#include "src/hw/reference.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::hw {
namespace {

atm::Cell mk(std::uint16_t vpi, std::uint16_t vci, bool clp = false) {
  atm::Cell c;
  c.header.vpi = vpi;
  c.header.vci = vci;
  c.header.clp = clp;
  return c;
}

TEST(SwitchRef, TranslatesAndRoutes) {
  SwitchRef ref(4);
  ref.table(1).install({1, 5}, atm::Route{3, {2, 6}, {}});
  const auto r = ref.route(1, mk(1, 5));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->out_port, 3u);
  EXPECT_EQ(r->cell.header.vpi, 2);
  EXPECT_EQ(r->cell.header.vci, 6);
  EXPECT_EQ(ref.routed_count(), 1u);
}

TEST(SwitchRef, UnknownVcMisinserted) {
  SwitchRef ref(2);
  EXPECT_FALSE(ref.route(0, mk(7, 7)).has_value());
  EXPECT_EQ(ref.misinserted(), 1u);
}

TEST(SwitchRef, TablesPerPortIndependent) {
  SwitchRef ref(2);
  ref.table(0).install({1, 1}, atm::Route{1, {1, 10}, {}});
  EXPECT_TRUE(ref.route(0, mk(1, 1)).has_value());
  EXPECT_FALSE(ref.route(1, mk(1, 1)).has_value());
}

TEST(SwitchRef, PortBoundsChecked) {
  SwitchRef ref(2);
  EXPECT_THROW(ref.table(2), castanet::LogicError);
  EXPECT_THROW(ref.route(5, mk(1, 1)), castanet::LogicError);
}

TEST(AccountingRef, MirrorsRtlSemantics) {
  AccountingRef ref(4);
  ref.set_tariff(1, Tariff{5, 2});
  ref.bind_connection({1, 200}, 1, 1);
  for (int i = 0; i < 4; ++i) ref.observe(mk(1, 200, false));
  for (int i = 0; i < 6; ++i) ref.observe(mk(1, 200, true));
  EXPECT_EQ(ref.count(1), 10u);
  EXPECT_EQ(ref.clp1_count(1), 6u);
  EXPECT_EQ(ref.charge(1), 4u * 5 + 6u * 2);
  EXPECT_EQ(ref.cells_observed(), 10u);
}

TEST(AccountingRef, UnknownVcSticky) {
  AccountingRef ref(1);
  EXPECT_FALSE(ref.unknown_vc_seen());
  ref.observe(mk(9, 9));
  EXPECT_TRUE(ref.unknown_vc_seen());
  ref.clear(0);
  EXPECT_FALSE(ref.unknown_vc_seen());
}

TEST(AccountingRef, ClearResetsOneIndex) {
  AccountingRef ref(2);
  ref.bind_connection({1, 1}, 0, 0);
  ref.bind_connection({1, 2}, 1, 0);
  ref.set_tariff(0, Tariff{1, 1});
  ref.observe(mk(1, 1));
  ref.observe(mk(1, 2));
  ref.clear(0);
  EXPECT_EQ(ref.count(0), 0u);
  EXPECT_EQ(ref.count(1), 1u);
}

}  // namespace
}  // namespace castanet::hw
