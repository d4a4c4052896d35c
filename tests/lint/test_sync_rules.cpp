#include "src/lint/sync_rules.hpp"

#include <gtest/gtest.h>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::lint {
namespace {

Report analyze(cosim::VerificationSession& session) {
  Report report;
  analyze_session_sync(session, report);
  return report;
}

/// One testbench + one ReferenceBackend, parameterized on what breaks.
struct SyncFixture {
  explicit SyncFixture(unsigned streams,
                       cosim::ConservativeSync::Params sync_params = {})
      : env(net.add_node("env")),
        backend("ref", sync_params),
        session(net, env, streams, {}) {}

  void declare(cosim::MessageType type) {
    backend.register_input(type, 1, [](const cosim::TimedMessage&) {});
  }

  netsim::Simulation net;
  netsim::Node& env;
  cosim::ReferenceBackend backend;
  cosim::VerificationSession session;
};

TEST(SyncRules, NoBackendsWarns) {
  SyncFixture f(1);
  const Report r = analyze(f.session);
  ASSERT_TRUE(r.has("SYN-NO-BACKENDS"));
  EXPECT_EQ(r.by_rule("SYN-NO-BACKENDS").front()->severity,
            Severity::kWarning);
}

TEST(SyncRules, ZeroClockPeriodKillsEveryLookahead) {
  cosim::ConservativeSync::Params sp;
  sp.clock_period = SimTime::zero();  // delta * 0 = 0 for every input
  SyncFixture f(1, sp);
  f.declare(0);
  f.session.attach(f.backend);
  const Report r = analyze(f.session);
  ASSERT_TRUE(r.has("SYN-LOOKAHEAD"));
  EXPECT_EQ(r.by_rule("SYN-LOOKAHEAD").front()->severity, Severity::kError);
}

TEST(SyncRules, NoDeclaredInputsWarns) {
  SyncFixture f(1);
  f.session.attach(f.backend);  // nothing declared
  const Report r = analyze(f.session);
  ASSERT_TRUE(r.has("SYN-NO-INPUTS"));
  EXPECT_EQ(r.by_rule("SYN-NO-INPUTS").front()->severity, Severity::kWarning);
  // The per-stream undeclared check is subsumed, not duplicated.
  EXPECT_FALSE(r.has("SYN-UNDECLARED"));
}

TEST(SyncRules, UndeclaredStreamTypeIsAnError) {
  SyncFixture f(2);
  f.declare(0);  // stream 1 emits type 1, never declared
  f.session.attach(f.backend);
  const Report r = analyze(f.session);
  ASSERT_TRUE(r.has("SYN-UNDECLARED"));
  const Diagnostic& d = *r.by_rule("SYN-UNDECLARED").front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("stream 1"), std::string::npos);
}

TEST(SyncRules, FullyDeclaredBackendIsClean) {
  SyncFixture f(2);
  f.declare(0);
  f.declare(1);
  f.session.attach(f.backend);
  const Report r = analyze(f.session);
  EXPECT_TRUE(r.empty()) << r.to_text();
}

}  // namespace
}  // namespace castanet::lint
