#include "src/castanet/wire.hpp"

#include <cstring>

#include "src/core/error.hpp"

namespace castanet::cosim::wire {

void Writer::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  // Canonicalize NaN payloads: any NaN becomes the quiet NaN, so encoding a
  // decoded frame (or two shards that both computed "empty") is byte-equal.
  if (v != v) bits = 0x7ff8000000000000ull;
  u64(bits);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void Writer::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

std::uint8_t Reader::u8() {
  if (remaining() < 1) throw ProtocolError("wire: truncated frame (u8)");
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  if (remaining() < 4) throw ProtocolError("wire: truncated frame (u32)");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  if (remaining() < 8) throw ProtocolError("wire: truncated frame (u64)");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (remaining() < n) throw ProtocolError("wire: truncated frame (str)");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Reader::bytes(void* out, std::size_t len) {
  if (remaining() < len) throw ProtocolError("wire: truncated frame (bytes)");
  if (len) std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

namespace {

// Presence flags packed into the message's tag byte.
constexpr std::uint8_t kHasCell = 0x01;
constexpr std::uint8_t kTimeUpdateOnly = 0x02;

}  // namespace

void encode_message(Writer& w, const TimedMessage& m) {
  w.u32(m.type);
  w.i64(m.timestamp.ps());
  std::uint8_t tag = 0;
  if (m.cell) tag |= kHasCell;
  if (m.time_update_only) tag |= kTimeUpdateOnly;
  w.u8(tag);
  if (m.cell) {
    const atm::Cell& c = *m.cell;
    w.u8(c.header.gfc);
    w.u32(c.header.vpi);
    w.u32(c.header.vci);
    w.u8(c.header.pti);
    w.u8(c.header.clp ? 1 : 0);
    w.bytes(c.payload.data(), c.payload.size());
  }
  w.u32(static_cast<std::uint32_t>(m.words.size()));
  for (std::uint64_t word : m.words) w.u64(word);
}

std::vector<std::uint8_t> encode_message(const TimedMessage& m) {
  Writer w;
  encode_message(w, m);
  return w.take();
}

TimedMessage decode_message(Reader& r) {
  TimedMessage m;
  m.type = r.u32();
  m.timestamp = SimTime::from_ps(r.i64());
  const std::uint8_t tag = r.u8();
  if (tag & ~(kHasCell | kTimeUpdateOnly)) {
    throw ProtocolError("wire: unknown message tag bits");
  }
  m.time_update_only = (tag & kTimeUpdateOnly) != 0;
  if (tag & kHasCell) {
    // Every field must come back as the encoder wrote it: a value the cell
    // header cannot hold would decode to a different cell and break the
    // canonical re-encoding.
    const auto u16_field = [&r](const char* name) {
      const std::uint32_t v = r.u32();
      if (v > 0xFFFF) {
        throw ProtocolError(std::string("wire: cell ") + name + " " +
                            std::to_string(v) + " does not fit in 16 bits");
      }
      return static_cast<std::uint16_t>(v);
    };
    atm::Cell c;
    c.header.gfc = r.u8();
    c.header.vpi = u16_field("VPI");
    c.header.vci = u16_field("VCI");
    c.header.pti = r.u8();
    const std::uint8_t clp = r.u8();
    if (clp > 1) {
      throw ProtocolError("wire: cell CLP byte " + std::to_string(clp) +
                          " is not 0 or 1");
    }
    c.header.clp = clp != 0;
    r.bytes(c.payload.data(), c.payload.size());
    m.cell = c;
  }
  // Bound the count by the bytes left before reserving anything: a corrupt
  // count must not become a multi-gigabyte allocation.
  const std::uint32_t nwords = r.u32();
  if (nwords > r.remaining() / 8) {
    throw ProtocolError("wire: word count " + std::to_string(nwords) +
                        " exceeds the " + std::to_string(r.remaining()) +
                        " bytes left in the frame");
  }
  m.words.reserve(nwords);
  for (std::uint32_t i = 0; i < nwords; ++i) m.words.push_back(r.u64());
  return m;
}

TimedMessage decode_message(const std::vector<std::uint8_t>& frame) {
  Reader r(frame);
  TimedMessage m = decode_message(r);
  if (!r.done()) throw ProtocolError("wire: trailing bytes after message");
  return m;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = seed;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

}  // namespace castanet::cosim::wire
