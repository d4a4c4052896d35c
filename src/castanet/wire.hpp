// Framed binary serialization of the co-simulation protocol.
//
// The paper's simulators exchange time-stamped messages over UNIX IPC; a
// process boundary needs a wire format.  This one is deliberately boring:
// little-endian fixed-width integers, length-prefixed repeated fields, one
// tag byte per optional field — and CANONICAL: encoding a decoded message
// reproduces the original bytes exactly, which is what lets the transport
// conformance suite assert byte-identical results across in-process and
// socket transports, and what makes the farm's result digests meaningful.
//
// The codec covers messages (RemoteBackend's protocol, the socket
// transport) and the Writer/Reader primitives the farm frames its results
// with; telemetry snapshots cross the farm as their JSON text instead.
// Decoding bytes from another process fails with ProtocolError, never with
// an allocation or a silently different value: every read is bounds
// checked, a word count larger than the bytes left is rejected before
// anything is reserved, and a VPI/VCI above 16 bits or a CLP byte other
// than 0 or 1 is rejected because it would not re-encode to the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/castanet/message.hpp"

namespace castanet::cosim::wire {

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern, little-endian; every NaN encodes as the one
  /// canonical quiet NaN so re-encoding a decoded frame is byte-identical.
  void f64(double v);
  void str(const std::string& s);
  void bytes(const void* data, std::size_t len);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder; throws ProtocolError on truncated input.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& frame)
      : Reader(frame.data(), frame.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  void bytes(void* out, std::size_t len);

  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Serializes one TimedMessage (cell payloads as the 53-octet I.361 encoding
/// minus HEC recomputation: header fields + raw payload, so U/X-free and
/// canonical).
void encode_message(Writer& w, const TimedMessage& m);
std::vector<std::uint8_t> encode_message(const TimedMessage& m);
TimedMessage decode_message(Reader& r);
TimedMessage decode_message(const std::vector<std::uint8_t>& frame);

/// FNV-1a 64-bit over `data` — the result digests of the farm and the
/// benchmark.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace castanet::cosim::wire
