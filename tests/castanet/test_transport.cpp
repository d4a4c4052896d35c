// Transport tests: the socket FramePipe's contract, fork_child, and the
// MessageTransport conformance suite — the same fixtures over every
// MessageTransport implementation, asserting byte-identical observable
// behavior, the guarantee that lets a session swap its transport without
// changing results.
#include "src/castanet/transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/transport.hpp"

namespace castanet::cosim {
namespace {

using transport::FramePipe;
using transport::RecvStatus;

atm::Cell mk_cell(std::uint16_t vci, std::uint8_t fill) {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

// ---------------------------------------------------------------------------
// Socket FramePipe (both endpoints driven from this process).

TEST(SocketFramePipe, FramesArriveInOrderAndIntact) {
  auto [a, b] = transport::make_socket_pipe();
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> frame(static_cast<std::size_t>(i * 37 + 1));
    for (std::size_t k = 0; k < frame.size(); ++k) {
      frame[k] = static_cast<std::uint8_t>(i + k);
    }
    ASSERT_TRUE(a->send_frame(frame));
    sent.push_back(std::move(frame));
  }
  std::vector<std::uint8_t> got;
  for (const auto& frame : sent) {
    ASSERT_EQ(b->recv_frame(got, 1000), RecvStatus::kFrame);
    EXPECT_EQ(got, frame);
  }
}

TEST(SocketFramePipe, EmptyAndLargeFrames) {
  auto [a, b] = transport::make_socket_pipe();
  const std::vector<std::uint8_t> empty;
  // Larger than the socket reader's 4096-byte chunk: exercises reassembly.
  std::vector<std::uint8_t> large(70'000);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>(i * 131);
  }
  ASSERT_TRUE(a->send_frame(empty));
  ASSERT_TRUE(a->send_frame(large));
  std::vector<std::uint8_t> got{1, 2, 3};
  ASSERT_EQ(b->recv_frame(got, 1000), RecvStatus::kFrame);
  EXPECT_TRUE(got.empty());  // replaced, not appended
  ASSERT_EQ(b->recv_frame(got, 1000), RecvStatus::kFrame);
  EXPECT_EQ(got, large);
}

TEST(SocketFramePipe, BothDirectionsIndependent) {
  auto [a, b] = transport::make_socket_pipe();
  ASSERT_TRUE(a->send_frame(std::vector<std::uint8_t>{1}));
  ASSERT_TRUE(b->send_frame(std::vector<std::uint8_t>{2}));
  std::vector<std::uint8_t> got;
  ASSERT_EQ(b->recv_frame(got, 1000), RecvStatus::kFrame);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1}));
  ASSERT_EQ(a->recv_frame(got, 1000), RecvStatus::kFrame);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{2}));
}

TEST(SocketFramePipe, TimeoutWhenIdle) {
  auto [a, b] = transport::make_socket_pipe();
  std::vector<std::uint8_t> got;
  EXPECT_EQ(b->recv_frame(got, 0), RecvStatus::kTimeout);
  EXPECT_EQ(b->recv_frame(got, 20), RecvStatus::kTimeout);
  (void)a;
}

TEST(SocketFramePipe, CloseSurfacesAsClosed) {
  auto [a, b] = transport::make_socket_pipe();
  ASSERT_TRUE(a->send_frame(std::vector<std::uint8_t>{9}));
  a->close();
  std::vector<std::uint8_t> got;
  // The socket's shutdown() discards in-flight data on some kernels, so the
  // contract is only: recv eventually reports kClosed, never hangs, and a
  // drained frame (if any) is intact.
  RecvStatus st = b->recv_frame(got, 1000);
  if (st == RecvStatus::kFrame) {
    EXPECT_EQ(got, (std::vector<std::uint8_t>{9}));
    st = b->recv_frame(got, 1000);
  }
  EXPECT_EQ(st, RecvStatus::kClosed);
  EXPECT_FALSE(b->send_frame(std::vector<std::uint8_t>{1}));
}

TEST(SocketFramePipe, LengthPrefixAboveCapClosesAtOnce) {
  auto [a, b] = transport::make_socket_pipe();
  // A raw little-endian prefix of 0xFFFFFFF0, as one corrupt header carries:
  // the reader must give up on the stream instead of waiting for ~4 GiB.
  const std::uint8_t prefix[4] = {0xF0, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(a->native_handle(), prefix, sizeof prefix), 4);
  std::vector<std::uint8_t> got;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(b->recv_frame(got, 2000), RecvStatus::kClosed);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  EXPECT_EQ(b->recv_frame(got, 0), RecvStatus::kClosed);  // stays closed
}

TEST(SocketFramePipe, LengthPrefixAtCapIsAccepted) {
  auto [a, b] = transport::make_socket_pipe();
  // The cap itself is a legal length: the reader waits for the bytes.
  const std::size_t cap = transport::kMaxFrameBytes;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(cap), static_cast<std::uint8_t>(cap >> 8),
      static_cast<std::uint8_t>(cap >> 16), static_cast<std::uint8_t>(cap >> 24)};
  ASSERT_EQ(::write(a->native_handle(), prefix, sizeof prefix), 4);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(b->recv_frame(got, 20), RecvStatus::kTimeout);
}

TEST(SocketFramePipe, FrameAboveCapIsNotSent) {
  auto [a, b] = transport::make_socket_pipe();
  // Rejected before the data is read, so nothing past the one-byte buffer
  // is touched.
  const std::uint8_t one = 7;
  EXPECT_FALSE(a->send_frame(&one, transport::kMaxFrameBytes + 1));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(b->recv_frame(got, 0), RecvStatus::kTimeout);  // nothing sent
  ASSERT_TRUE(a->send_frame(&one, 1));  // and the pipe still works
  ASSERT_EQ(b->recv_frame(got, 1000), RecvStatus::kFrame);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{7}));
}

TEST(ForkChild, FramesFlowBothWaysAndBodyStatusIsExitStatus) {
  transport::Child child = transport::fork_child([](FramePipe& pipe) {
    std::vector<std::uint8_t> frame;
    if (pipe.recv_frame(frame, 5000) != RecvStatus::kFrame) return 1;
    std::reverse(frame.begin(), frame.end());
    if (!pipe.send_frame(frame)) return 2;
    return 42;
  });
  ASSERT_GT(child.pid, 0);
  ASSERT_TRUE(child.pipe->send_frame(std::vector<std::uint8_t>{1, 2, 3}));
  std::vector<std::uint8_t> got;
  ASSERT_EQ(child.pipe->recv_frame(got, 5000), RecvStatus::kFrame);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{3, 2, 1}));
  // The child exited after its reply: its end is closed.
  EXPECT_EQ(child.pipe->recv_frame(got, 5000), RecvStatus::kClosed);
  EXPECT_EQ(transport::wait_child(child.pid), 42);
}

// ---------------------------------------------------------------------------
// MessageTransport conformance: identical fixture sequence over the
// in-process channel and the socket transport, byte-identical delivery.

std::vector<TimedMessage> fixture_messages() {
  std::vector<TimedMessage> msgs;
  for (int i = 0; i < 5; ++i) {
    msgs.push_back(make_cell_message(
        0, SimTime::from_us(i + 1), mk_cell(100, static_cast<std::uint8_t>(i))));
  }
  msgs.push_back(make_word_message(1, SimTime::from_us(9), {7, 8, 9}));
  msgs.push_back(make_time_update(SimTime::from_us(10)));
  msgs.push_back(make_cell_message(2, SimTime::from_us(11), mk_cell(7, 0xFF)));
  return msgs;
}

std::vector<std::vector<std::uint8_t>> pump_through(MessageTransport& t) {
  std::vector<std::vector<std::uint8_t>> out;
  const auto msgs = fixture_messages();
  // Interleave sends and receives like the session's event loop does.
  std::size_t sent = 0;
  for (const TimedMessage& m : msgs) {
    t.send(m);
    ++sent;
    if (sent % 3 == 0) {
      while (auto r = t.receive()) out.push_back(wire::encode_message(*r));
    }
  }
  EXPECT_EQ(t.messages_sent(), msgs.size());
  while (auto r = t.receive()) out.push_back(wire::encode_message(*r));
  return out;
}

TEST(MessageTransportConformance, InProcessAndSocketAreByteIdentical) {
  MessageChannel channel;
  SocketMessageTransport socket;

  const auto via_channel = pump_through(channel);
  const auto via_socket = pump_through(socket);
  ASSERT_EQ(via_channel.size(), fixture_messages().size());
  EXPECT_EQ(via_channel, via_socket);
}

TEST(MessageTransportConformance, SocketSurvivesLongBurstWithoutDeadlock) {
  // A burst bigger than a kernel socket buffer: send() must keep draining
  // arrived frames into the inbox instead of blocking against itself.
  SocketMessageTransport socket;
  constexpr int kBurst = 4000;
  for (int i = 0; i < kBurst; ++i) {
    socket.send(make_cell_message(0, SimTime::from_ns(i),
                                  mk_cell(1, static_cast<std::uint8_t>(i))));
  }
  int received = 0;
  while (socket.receive()) ++received;
  EXPECT_EQ(received, kBurst);
}

TEST(MessageTransportConformance, FifoOrderPreserved) {
  SocketMessageTransport socket;
  for (int i = 0; i < 50; ++i) {
    socket.send(make_word_message(0, SimTime::from_ns(i),
                                  {static_cast<std::uint64_t>(i)}));
  }
  for (int i = 0; i < 50; ++i) {
    const auto r = socket.receive();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->words.at(0), static_cast<std::uint64_t>(i));
  }
}

TEST(TransportKindParsing, AcceptedSpellingsAndErrors) {
  EXPECT_EQ(transport_kind_from_string("in-process"), TransportKind::kInProcess);
  EXPECT_EQ(transport_kind_from_string("inprocess"), TransportKind::kInProcess);
  EXPECT_EQ(transport_kind_from_string("in_process"), TransportKind::kInProcess);
  EXPECT_EQ(transport_kind_from_string("socket"), TransportKind::kSocket);
  EXPECT_THROW(transport_kind_from_string("carrier-pigeon"), ConfigError);
  EXPECT_STREQ(to_string(TransportKind::kInProcess), "in-process");
  EXPECT_STREQ(to_string(TransportKind::kSocket), "socket");
}

TEST(TransportFactory, MakesTheRequestedKind) {
  const auto inproc = make_transport(TransportKind::kInProcess);
  const auto socket = make_transport(TransportKind::kSocket);
  EXPECT_NE(dynamic_cast<MessageChannel*>(inproc.get()), nullptr);
  EXPECT_NE(dynamic_cast<SocketMessageTransport*>(socket.get()), nullptr);
}

}  // namespace
}  // namespace castanet::cosim
