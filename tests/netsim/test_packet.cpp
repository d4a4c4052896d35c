#include "src/netsim/packet.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::netsim {
namespace {

TEST(Packet, DefaultsToOneCellSize) {
  Packet p;
  EXPECT_EQ(p.size_bits(), 8u * atm::kCellBytes);
  EXPECT_FALSE(p.has_cell());
  EXPECT_EQ(p.id(), 0u);
}

TEST(Packet, CellAccessGuarded) {
  Packet p;
  EXPECT_THROW(p.cell(), LogicError);
  EXPECT_THROW(p.mutable_cell(), LogicError);
  atm::Cell c;
  c.header.vci = 5;
  p.set_cell(c);
  EXPECT_TRUE(p.has_cell());
  EXPECT_EQ(p.cell().header.vci, 5);
  p.mutable_cell().header.vci = 6;
  EXPECT_EQ(p.cell().header.vci, 6);
}

TEST(Packet, FieldsStoreAndGuard) {
  Packet p;
  EXPECT_FALSE(p.has_field("x"));
  EXPECT_THROW(p.field("x"), LogicError);
  p.set_field("x", 3.5);
  EXPECT_TRUE(p.has_field("x"));
  EXPECT_DOUBLE_EQ(p.field("x"), 3.5);
  p.set_field("x", 4.0);  // overwrite
  EXPECT_DOUBLE_EQ(p.field("x"), 4.0);
}

TEST(Packet, MetadataRoundTrip) {
  Packet p;
  p.set_id(77);
  p.set_creation_time(SimTime::from_us(9));
  p.set_size_bits(1234);
  EXPECT_EQ(p.id(), 77u);
  EXPECT_EQ(p.creation_time(), SimTime::from_us(9));
  EXPECT_EQ(p.size_bits(), 1234u);
}

TEST(Packet, ToStringMentionsContents) {
  Packet p;
  p.set_id(3);
  p.set_field("kind", 2.0);
  const std::string s = p.to_string();
  EXPECT_NE(s.find("pkt#3"), std::string::npos);
  EXPECT_NE(s.find("kind=2"), std::string::npos);
}

TEST(Packet, CopySemanticsIndependent) {
  Packet a;
  atm::Cell c;
  c.header.vci = 1;
  a.set_cell(c);
  Packet b = a;
  b.mutable_cell().header.vci = 2;
  EXPECT_EQ(a.cell().header.vci, 1);
  EXPECT_EQ(b.cell().header.vci, 2);
}

TEST(Packet, CopyIsDeep) {
  Packet a;
  atm::Cell c;
  c.header.vci = 9;
  a.set_cell(c);
  a.set_field("seq", 3.0);

  Packet b = a;
  b.mutable_cell().header.vci = 10;
  b.set_field("seq", 4.0);
  EXPECT_EQ(a.cell().header.vci, 9);
  EXPECT_DOUBLE_EQ(a.field("seq"), 3.0);
  EXPECT_EQ(b.cell().header.vci, 10);
  EXPECT_DOUBLE_EQ(b.field("seq"), 4.0);
}

TEST(Packet, ToStringKeepsSortedFieldOrder) {
  Packet p;
  p.set_id(5);
  p.set_field("zeta", 1.0);
  p.set_field("alpha", 2.0);
  p.set_field("mid", 3.0);
  const std::string s = p.to_string();
  EXPECT_LT(s.find("alpha=2"), s.find("mid=3"));
  EXPECT_LT(s.find("mid=3"), s.find("zeta=1"));
}

}  // namespace
}  // namespace castanet::netsim
