#include "src/rtl/logic_vector.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::rtl {
namespace {

TEST(LogicVector, ConstructionAndFill) {
  LogicVector v(4);
  EXPECT_EQ(v.width(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v.bit(i), Logic::U);
  LogicVector z(3, Logic::Z);
  EXPECT_EQ(z.bit(2), Logic::Z);
}

TEST(LogicVector, UintRoundTrip) {
  for (std::uint64_t x : {0ull, 1ull, 0xA5ull, 0xFFFFull, 0x123456789ABCDEFull}) {
    const LogicVector v = LogicVector::from_uint(x, 64);
    EXPECT_EQ(v.to_uint(), x);
  }
}

TEST(LogicVector, UintRespectsWidth) {
  const LogicVector v = LogicVector::from_uint(0x1F, 4);
  EXPECT_EQ(v.to_uint(), 0xFu);  // truncated to 4 bits
}

TEST(LogicVector, FromStringMsbFirst) {
  const LogicVector v = LogicVector::from_string("10Z");
  EXPECT_EQ(v.width(), 3u);
  EXPECT_EQ(v.bit(2), Logic::L1);  // leftmost char is MSB
  EXPECT_EQ(v.bit(1), Logic::L0);
  EXPECT_EQ(v.bit(0), Logic::Z);
  EXPECT_EQ(v.to_string(), "10Z");
}

TEST(LogicVector, ToUintThrowsOnUndefinedBits) {
  LogicVector v = LogicVector::from_uint(5, 4);
  v.set_bit(2, Logic::X);
  EXPECT_THROW(v.to_uint(), LogicError);
  v.set_bit(2, Logic::Z);
  EXPECT_THROW(v.to_uint(), LogicError);
}

TEST(LogicVector, WeakValuesCountInToUint) {
  LogicVector v(2, Logic::L);  // weak 0
  v.set_bit(1, Logic::H);      // weak 1
  EXPECT_EQ(v.to_uint(), 2u);
}

TEST(LogicVector, DefinedAndUnknownPredicates) {
  LogicVector v = LogicVector::from_uint(3, 4);
  EXPECT_TRUE(v.is_defined());
  EXPECT_FALSE(v.has_unknown());
  v.set_bit(0, Logic::Z);
  EXPECT_FALSE(v.is_defined());
  EXPECT_FALSE(v.has_unknown());  // Z is undefined but not unknown
  v.set_bit(1, Logic::X);
  EXPECT_TRUE(v.has_unknown());
}

TEST(LogicVector, SliceAndSetSlice) {
  LogicVector v = LogicVector::from_uint(0xABCD, 16);
  EXPECT_EQ(v.slice(0, 8).to_uint(), 0xCDu);
  EXPECT_EQ(v.slice(8, 8).to_uint(), 0xABu);
  v.set_slice(4, LogicVector::from_uint(0xF, 4));
  EXPECT_EQ(v.to_uint(), 0xABFDu);
}

TEST(LogicVector, SliceOutOfRangeThrows) {
  const LogicVector v(8);
  EXPECT_THROW(v.slice(4, 8), LogicError);
  LogicVector w(8);
  EXPECT_THROW(w.set_slice(6, LogicVector(4)), LogicError);
}

TEST(LogicVector, BitAccessBoundsChecked) {
  LogicVector v(4);
  EXPECT_THROW(v.bit(4), LogicError);
  EXPECT_THROW(v.set_bit(4, Logic::L1), LogicError);
}

TEST(LogicVector, ElementwiseResolve) {
  const LogicVector a = LogicVector::from_string("1Z0");
  const LogicVector b = LogicVector::from_string("ZZ1");
  const LogicVector r = resolve(a, b);
  EXPECT_EQ(r.to_string(), "1ZX");
}

TEST(LogicVector, ResolveWidthMismatchThrows) {
  EXPECT_THROW(resolve(LogicVector(3), LogicVector(4)), LogicError);
}

TEST(LogicVector, Equality) {
  EXPECT_EQ(LogicVector::from_uint(5, 4), LogicVector::from_uint(5, 4));
  EXPECT_NE(LogicVector::from_uint(5, 4), LogicVector::from_uint(5, 5));
  EXPECT_NE(LogicVector::from_uint(5, 4), LogicVector::from_uint(6, 4));

  // All 81 ordered value pairs, planted at bit 0 and at the top bit of an
  // otherwise equal vector, inline (1, 64) and on the heap (65, 424).  Some
  // pairs differ in one plane only: U/X in plane 0, X/W in plane 2 and
  // U/'-' in plane 3.
  constexpr Logic kAll[] = {Logic::U,  Logic::X, Logic::L0,
                            Logic::L1, Logic::Z, Logic::W,
                            Logic::L,  Logic::H, Logic::DC};
  for (const std::size_t width : {1, 64, 65, 424}) {
    for (const std::size_t pos : {std::size_t{0}, width - 1}) {
      for (const Logic x : kAll) {
        for (const Logic y : kAll) {
          LogicVector a(width, Logic::L1);
          LogicVector b(width, Logic::L1);
          a.set_bit(pos, x);
          b.set_bit(pos, y);
          EXPECT_EQ(a == b, x == y)
              << "width " << width << " bit " << pos << ": " << to_char(x)
              << " vs " << to_char(y);
          EXPECT_EQ(a != b, x != y);
        }
      }
    }
  }
}

TEST(LogicVector, ScalarHelper) {
  const LogicVector s = scalar(Logic::H);
  EXPECT_EQ(s.width(), 1u);
  EXPECT_EQ(s.bit(0), Logic::H);
}

TEST(LogicVector, FromUintWidthLimit) {
  EXPECT_THROW(LogicVector::from_uint(0, 65), LogicError);
  LogicVector big(100, Logic::L0);
  EXPECT_THROW(big.to_uint(), LogicError);
}

}  // namespace
}  // namespace castanet::rtl
