#include "src/castanet/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/core/error.hpp"

namespace castanet::cosim::wire {
namespace {

atm::Cell mk_cell(std::uint16_t vci, std::uint8_t fill) {
  atm::Cell c;
  c.header.gfc = 2;
  c.header.vpi = 11;
  c.header.vci = vci;
  c.header.pti = 3;
  c.header.clp = true;
  c.payload.fill(fill);
  return c;
}

TEST(Wire, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.str("hello wire");
  w.str("");
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello wire");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Wire, LittleEndianLayout) {
  Writer w;
  w.u32(0x04030201);
  ASSERT_EQ(w.data().size(), 4u);
  EXPECT_EQ(w.data()[0], 1);
  EXPECT_EQ(w.data()[1], 2);
  EXPECT_EQ(w.data()[2], 3);
  EXPECT_EQ(w.data()[3], 4);
}

TEST(Wire, CellMessageRoundTrip) {
  const TimedMessage m =
      make_cell_message(7, SimTime::from_ns(12345), mk_cell(100, 0x5C));
  const TimedMessage d = decode_message(encode_message(m));
  EXPECT_EQ(d.type, m.type);
  EXPECT_EQ(d.timestamp, m.timestamp);
  ASSERT_TRUE(d.cell.has_value());
  EXPECT_EQ(d.cell->header.gfc, m.cell->header.gfc);
  EXPECT_EQ(d.cell->header.vpi, m.cell->header.vpi);
  EXPECT_EQ(d.cell->header.vci, m.cell->header.vci);
  EXPECT_EQ(d.cell->header.pti, m.cell->header.pti);
  EXPECT_EQ(d.cell->header.clp, m.cell->header.clp);
  EXPECT_EQ(d.cell->payload, m.cell->payload);
  EXPECT_TRUE(d.words.empty());
  EXPECT_FALSE(d.time_update_only);
}

TEST(Wire, WordAndTimeUpdateRoundTrip) {
  const TimedMessage words =
      make_word_message(3, SimTime::from_us(9), {120, 0, ~std::uint64_t{0}});
  const TimedMessage dw = decode_message(encode_message(words));
  EXPECT_EQ(dw.type, 3u);
  EXPECT_EQ(dw.words, words.words);
  EXPECT_FALSE(dw.cell.has_value());

  const TimedMessage tick = make_time_update(SimTime::from_ms(2));
  const TimedMessage dt = decode_message(encode_message(tick));
  EXPECT_TRUE(dt.time_update_only);
  EXPECT_EQ(dt.timestamp, SimTime::from_ms(2));
}

TEST(Wire, EncodingIsCanonical) {
  // encode(decode(bytes)) == bytes: the property the transport conformance
  // suite and the farm's digests rest on.
  for (const TimedMessage& m :
       {make_cell_message(1, SimTime::from_ns(50), mk_cell(7, 0xEE)),
        make_word_message(2, SimTime::zero(), {1, 2, 3}),
        make_time_update(SimTime::from_sec(1))}) {
    const auto bytes = encode_message(m);
    EXPECT_EQ(encode_message(decode_message(bytes)), bytes);
  }
}

TEST(Wire, TruncatedInputThrows) {
  const auto bytes =
      encode_message(make_cell_message(1, SimTime::from_ns(1), mk_cell(5, 9)));
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_message(cut), ProtocolError) << "len=" << len;
  }
}

TEST(Wire, TrailingBytesRejected) {
  auto bytes = encode_message(make_word_message(1, SimTime::zero(), {4}));
  bytes.push_back(0);
  EXPECT_THROW(decode_message(bytes), ProtocolError);
}

TEST(Wire, UnknownTagBitsRejected) {
  auto bytes = encode_message(make_time_update(SimTime::zero()));
  // The tag byte follows u32 type + i64 timestamp.
  bytes[4 + 8] |= 0x80;
  EXPECT_THROW(decode_message(bytes), ProtocolError);
}

TEST(Wire, WordCountBeyondFrameRejected) {
  // u32 type + i64 time stamp + tag 0 + a word count of 2^32 - 1 and no
  // words: 17 bytes that once asked the decoder to reserve 32 GiB.
  Writer w;
  w.u32(0);
  w.i64(0);
  w.u8(0);
  w.u32(0xFFFFFFFFu);
  ASSERT_EQ(w.data().size(), 17u);
  try {
    decode_message(w.data());
    FAIL() << "a word count beyond the frame decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("word count 4294967295"),
              std::string::npos)
        << e.what();
  }

  // One word short of the count is rejected by the same check.
  auto bytes = encode_message(make_word_message(1, SimTime::zero(), {4, 5}));
  bytes.resize(bytes.size() - 8);
  EXPECT_THROW(decode_message(bytes), ProtocolError);
}

TEST(Wire, OutOfRangeHeaderFieldsRejected) {
  // Cell layout after u32 type + i64 time stamp + tag: gfc u8 at 13, VPI
  // u32 at 14, VCI u32 at 18, PTI u8 at 22, CLP u8 at 23.  A value the
  // cell header cannot hold would decode to a different cell.
  const auto good =
      encode_message(make_cell_message(1, SimTime::from_ns(1), mk_cell(5, 9)));
  ASSERT_NO_THROW(decode_message(good));

  auto vpi = good;
  vpi[14 + 2] = 0x01;  // VPI 0x1000b
  EXPECT_THROW(decode_message(vpi), ProtocolError);

  auto vci = good;
  vci[18 + 3] = 0x80;  // VCI above 2^31
  EXPECT_THROW(decode_message(vci), ProtocolError);

  auto clp = good;
  clp[23] = 2;
  EXPECT_THROW(decode_message(clp), ProtocolError);
}

TEST(Wire, WriterCanonicalizesEveryNaN) {
  Writer a, b;
  a.f64(std::numeric_limits<double>::quiet_NaN());
  b.f64(-std::numeric_limits<double>::signaling_NaN());
  EXPECT_EQ(a.data(), b.data());
  Reader r(a.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Wire, Fnv1aMatchesReferenceVector) {
  // FNV-1a 64-bit reference: fnv1a("a") = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  // Chaining via seed equals hashing the concatenation.
  EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), fnv1a("ab", 2));
}

}  // namespace
}  // namespace castanet::cosim::wire
