// RemoteBackend proxy vs an in-process backend: hosting a backend in a
// separate process (a child forked by transport::fork_child, over a real
// AF_UNIX socketpair, so the whole framed protocol is exercised) must not
// change a single response byte; a dead host must surface as a failed shard
// (ProtocolError), never a hang; and a host whose proxy vanished must exit
// on its own.  Every test reaps its host and checks the exit status: 0
// after an orderly kShutdown, non-zero otherwise.
#include "src/castanet/remote.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/transport.hpp"

namespace castanet::cosim {
namespace {

constexpr MessageType kCellsIn = 0;
constexpr MessageType kEchoOut = 1;

ConservativeSync::Params sync_params() {
  ConservativeSync::Params p;
  p.policy = SyncPolicy::kGlobalOrder;
  p.clock_period = SimTime::from_ns(50);
  return p;
}

atm::Cell mk_cell(std::uint16_t vci, std::uint8_t fill) {
  atm::Cell c;
  c.header.vpi = 3;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

// Reference backend that echoes every deliverable cell back on kEchoOut.
std::unique_ptr<ReferenceBackend> make_echo_backend(const std::string& name) {
  auto b = std::make_unique<ReferenceBackend>(name, sync_params());
  ReferenceBackend* raw = b.get();
  b->register_input(kCellsIn, 2, [raw](const TimedMessage& m) {
    raw->respond(kEchoOut, m.timestamp, *m.cell);
  });
  return b;
}

// Forks a child hosting an echo backend: exit status 0 when serve_backend
// saw kShutdown, 1 when it returned false.
transport::Child fork_echo_host() {
  return transport::fork_child([](transport::FramePipe& pipe) {
    const auto hosted = make_echo_backend("hosted");
    return serve_backend(*hosted, pipe) ? 0 : 1;
  });
}

std::vector<TimedMessage> stimulus() {
  std::vector<TimedMessage> msgs;
  for (int i = 0; i < 10; ++i) {
    msgs.push_back(make_cell_message(kCellsIn, SimTime::from_us(i + 1),
                                     mk_cell(40, static_cast<std::uint8_t>(i))));
  }
  msgs.push_back(make_time_update(SimTime::from_us(20)));
  return msgs;
}

TEST(RemoteBackend, ProxiedBackendMatchesDirect) {
  const auto direct = make_echo_backend("direct");
  transport::Child host = fork_echo_host();

  RemoteBackend proxy("proxy", sync_params(), std::move(host.pipe));
  proxy.declare_input(kCellsIn, 2);

  const SimTime horizon = SimTime::from_us(20);
  for (const TimedMessage& m : stimulus()) {
    direct->push(m);
    proxy.push(m);
  }
  direct->catch_up(horizon);
  proxy.catch_up(horizon);
  direct->finish(horizon);
  proxy.finish(horizon);

  std::vector<TimedMessage> from_direct;
  std::vector<TimedMessage> from_proxy;
  direct->drain_responses(from_direct);
  proxy.drain_responses(from_proxy);

  ASSERT_EQ(from_direct.size(), 10u);
  ASSERT_EQ(from_proxy.size(), from_direct.size());
  for (std::size_t i = 0; i < from_direct.size(); ++i) {
    EXPECT_EQ(wire::encode_message(from_proxy[i]),
              wire::encode_message(from_direct[i]))
        << "response " << i;
  }
  EXPECT_EQ(proxy.now(), direct->now());
  // One round-trip per granted window, not one per message.
  EXPECT_GT(proxy.round_trips(), 0u);
  EXPECT_LE(proxy.round_trips(), stimulus().size() + 1);

  proxy.shutdown();
  EXPECT_EQ(transport::wait_child(host.pid), 0);
}

TEST(RemoteBackend, SharesTheBackendContract) {
  // The proxy's sync() is the mirror its inputs were declared into, and
  // its one response buffer holds the host's responses (stamped on the
  // host) and its own respond_words() (stamped by the caller) in emission
  // order, drained once.
  transport::Child host = fork_echo_host();
  RemoteBackend proxy("proxy", sync_params(), std::move(host.pipe));
  proxy.declare_input(kCellsIn, 2);
  const DutBackend& const_proxy = proxy;
  EXPECT_EQ(&const_proxy.sync(), &proxy.sync());
  EXPECT_TRUE(proxy.sync().input_declared(kCellsIn));

  for (const TimedMessage& m : stimulus()) proxy.push(m);
  EXPECT_EQ(proxy.sync().messages_received(), 10u);
  proxy.catch_up(SimTime::from_us(20));
  proxy.respond_words(kEchoOut + 1, SimTime::from_us(30), {7});
  proxy.finish(SimTime::from_us(20));

  std::vector<TimedMessage> out;
  proxy.drain_responses(out);
  ASSERT_EQ(out.size(), 11u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].type, kEchoOut);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].timestamp,
              SimTime::from_us(i + 1));  // the echo answers at the stimulus
  }
  EXPECT_EQ(out[10].type, kEchoOut + 1);
  EXPECT_EQ(out[10].timestamp, SimTime::from_us(30));
  std::vector<TimedMessage> again;
  proxy.drain_responses(again);
  EXPECT_TRUE(again.empty());

  proxy.shutdown();
  EXPECT_EQ(transport::wait_child(host.pid), 0);
}

TEST(RemoteBackend, HostDeathSurfacesAsProtocolError) {
  transport::Child host =
      transport::fork_child([](transport::FramePipe& pipe) {
        std::vector<std::uint8_t> frame;
        pipe.recv_frame(frame, 5000);  // accept one request, then die
        return 1;
      });

  RemoteBackend proxy("proxy", sync_params(), std::move(host.pipe));
  proxy.declare_input(kCellsIn, 2);
  proxy.push(
      make_cell_message(kCellsIn, SimTime::from_us(1), mk_cell(1, 0xAA)));
  EXPECT_THROW(
      {
        proxy.push(make_time_update(SimTime::from_us(10)));
        proxy.catch_up(SimTime::from_us(10));
      },
      ProtocolError);
  EXPECT_EQ(transport::wait_child(host.pid), 1);
}

TEST(RemoteBackend, HostSideExceptionPropagatesWithMessage) {
  // The hosted backend throws during apply; the proxy's mirror stays clean
  // (it never runs apply handlers), so the failure must travel back over the
  // wire as a kError frame.
  transport::Child host =
      transport::fork_child([](transport::FramePipe& pipe) {
        ReferenceBackend hosted("exploding", sync_params());
        hosted.register_input(kCellsIn, 2, [](const TimedMessage&) {
          throw IoError("board fuse blew");
        });
        return serve_backend(hosted, pipe) ? 0 : 1;
      });

  RemoteBackend proxy("proxy", sync_params(), std::move(host.pipe));
  proxy.declare_input(kCellsIn, 2);
  proxy.push(
      make_cell_message(kCellsIn, SimTime::from_us(1), mk_cell(2, 0xBB)));
  proxy.push(make_time_update(SimTime::from_us(10)));
  try {
    proxy.catch_up(SimTime::from_us(10));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("board fuse blew"), std::string::npos)
        << e.what();
  }
  // The backend error terminated the host loop: serve_backend returned false.
  EXPECT_EQ(transport::wait_child(host.pid), 1);
}

TEST(RemoteBackend, HostExitsWhenProxyVanishes) {
  transport::Child host = fork_echo_host();

  // Drop the parent's end the way a crashed proxy process would: no
  // kShutdown and no shutdown(2), only a plain close.  dup2 closes the
  // socket end and parks /dev/null on its fd number, so the pipe's own
  // destructor later closes /dev/null instead.  EOF reaches the host only
  // if no copy of this end leaked into it.
  const int devnull = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(devnull, 0);
  ASSERT_GE(::dup2(devnull, host.pipe->native_handle()), 0);
  ::close(devnull);

  int status = 0;
  pid_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((reaped = ::waitpid(host.pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {
    ::kill(host.pid, SIGKILL);
    ::waitpid(host.pid, &status, 0);
    FAIL() << "host still running 5 s after its proxy vanished";
  }
  ASSERT_EQ(reaped, host.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace castanet::cosim
