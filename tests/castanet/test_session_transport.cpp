// A whole VerificationSession over the socket transport must be
// byte-identical to the same session over the in-process channel — the
// session-level half of the transport conformance suite (the unit half
// lives in test_transport.cpp).
#include "src/castanet/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/wire.hpp"
#include "src/netsim/simulation.hpp"
#include "src/traffic/processes.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClkPeriod = SimTime::from_ns(50);

ConservativeSync::Params sync_params() {
  ConservativeSync::Params p;
  p.policy = SyncPolicy::kGlobalOrder;
  p.clock_period = kClkPeriod;
  return p;
}

struct RunOutcome {
  std::uint64_t compared = 0;
  std::uint64_t matched = 0;
  bool clean = false;
  std::uint64_t causality_errors = 0;
  std::uint64_t messages_to_hdl = 0;
  /// Canonical encoding of every primary response, in emission order.
  std::vector<std::vector<std::uint8_t>> responses;
};

// Pure-model session (echo primary + honest echo backend) with every knob
// fixed except the transport kind.
RunOutcome run_session(TransportKind kind) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  ReferenceBackend b("shadow", sync_params());
  for (ReferenceBackend* r : {&a, &b}) {
    r->register_input(0, 1, [r](const TimedMessage& m) {
      r->respond(0, m.timestamp, *m.cell);
    });
  }

  VerificationSession::Params sp;
  sp.clock_period = kClkPeriod;
  sp.transport = kind;

  VerificationSession session(net, env, 1, sp);
  session.attach(a);
  session.attach(b);
  RunOutcome out;
  session.set_response_handler([&out](const TimedMessage& m) {
    out.responses.push_back(wire::encode_message(m));
  });
  auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                  SimTime::from_us(5));
  auto& gen =
      env.add_process<traffic::GeneratorProcess>("gen", std::move(src), 16);
  net.connect(gen, 0, session.gateway(), 0);
  session.run_until(SimTime::from_us(300));
  session.comparator().finish();

  out.compared = session.comparator().responses_compared();
  out.matched = session.comparator().responses_matched();
  out.clean = session.comparator().clean();
  out.messages_to_hdl = session.stats().messages_to_hdl;
  for (const auto& bs : session.stats().backends) {
    out.causality_errors += bs.causality_errors;
  }
  return out;
}

TEST(SessionTransport, SocketSessionByteIdenticalToInProcess) {
  const RunOutcome inproc = run_session(TransportKind::kInProcess);
  const RunOutcome socket = run_session(TransportKind::kSocket);

  EXPECT_TRUE(inproc.clean);
  EXPECT_TRUE(socket.clean);
  EXPECT_EQ(inproc.compared, 16u);
  EXPECT_EQ(socket.compared, inproc.compared);
  EXPECT_EQ(socket.matched, inproc.matched);
  EXPECT_EQ(socket.causality_errors, 0u);
  // Every gateway message crossed whichever transport carried it.
  EXPECT_EQ(inproc.messages_to_hdl, 16u);
  EXPECT_EQ(socket.messages_to_hdl, inproc.messages_to_hdl);
  // The actual response payloads, byte for byte.
  ASSERT_EQ(socket.responses.size(), inproc.responses.size());
  EXPECT_EQ(socket.responses, inproc.responses);
}

}  // namespace
}  // namespace castanet::cosim
