// The two-party Fig. 2 coupling: one RtlBackend attached to a
// VerificationSession.
#include <gtest/gtest.h>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/traffic/processes.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClkPeriod = SimTime::from_ns(50);

struct RigParams {
  ConservativeSync::Params sync;
  VerificationSession::Params session;
};

/// Full coupled setup of Fig. 2: traffic generator (network domain) ->
/// gateway -> [channel] -> co-simulation entity -> serial cell lane -> RTL
/// cell receiver (the DUT) -> responses (the backend's buffer) -> gateway ->
/// sink.
struct CoVerifyRig {
  netsim::Simulation net;
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClkPeriod};
  hw::CellPort lane = hw::make_cell_port(hdl, "lane");
  hw::CellPortDriver driver{hdl, "drv", clk, lane};
  hw::CellReceiver rx{hdl, "rx", clk, rst, lane};

  netsim::Node& env = net.add_node("env");
  RtlBackend rtl;
  VerificationSession session;
  traffic::SinkProcess* sink = nullptr;

  explicit CoVerifyRig(const RigParams& params, std::uint64_t cells,
                       SimTime period)
      : rtl("rtl", hdl, params.sync), session(net, env, 1, params.session) {
    session.attach(rtl);
    auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                    period);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen", std::move(src), cells);
    sink = &env.add_process<traffic::SinkProcess>("sink");
    net.connect(gen, 0, session.gateway(), 0);
    net.connect(session.gateway(), 0, *sink, 0);

    rtl.entity().register_input(0, 53, [this](const TimedMessage& m) {
      ASSERT_TRUE(m.cell.has_value());
      driver.enqueue(*m.cell);
    });
    // DUT responses: every received cell back to the abstract level.
    hdl.add_process("respond", {rx.cell_valid.id()}, [this] {
      if (rx.cell_valid.rose()) {
        rtl.entity().send_cell_response(
            0, hw::bits_to_cell(rx.cell_out.read(), false));
      }
    });
  }

  VerificationSession::BackendStats rtl_stats() const {
    return session.stats().backends[0];
  }
};

RigParams default_params(SyncPolicy policy) {
  RigParams p;
  p.sync.policy = policy;
  p.sync.clock_period = kClkPeriod;
  return p;
}

TEST(CoVerify, AllCellsRoundTripThroughRtlDut) {
  CoVerifyRig rig(default_params(SyncPolicy::kGlobalOrder), 20,
                  SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  EXPECT_EQ(rig.rx.cells_accepted(), 20u);
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  // Content preserved end to end.
  for (std::size_t i = 0; i < rig.sink->log().size(); ++i) {
    EXPECT_EQ(traffic::cell_sequence(rig.sink->log()[i].cell), i);
  }
}

TEST(CoVerify, HdlTimeAlwaysLagsNetworkTime) {
  CoVerifyRig rig(default_params(SyncPolicy::kGlobalOrder), 10,
                  SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(200));
  const auto stats = rig.rtl_stats();
  EXPECT_EQ(stats.causality_errors, 0u);
  EXPECT_GT(stats.max_lag_seconds, 0.0);
  EXPECT_GT(stats.windows, 0u);
}

TEST(CoVerify, MessageCountsMatchTraffic) {
  CoVerifyRig rig(default_params(SyncPolicy::kGlobalOrder), 15,
                  SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(300));
  EXPECT_EQ(rig.session.stats().messages_to_hdl, 15u);
  EXPECT_EQ(rig.rtl_stats().responses, 15u);
  EXPECT_EQ(rig.session.gateway().forwarded(), 15u);
  EXPECT_EQ(rig.session.gateway().responses_emitted(), 15u);
}

TEST(CoVerify, TimeWindowPolicyAlsoDelivers) {
  // CBR spacing (5 us) exceeds delta (53 cycles = 2.65 us), satisfying the
  // paper's spacing assumption for the time-window rule.
  CoVerifyRig rig(default_params(SyncPolicy::kTimeWindow), 20,
                  SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_EQ(rig.rtl_stats().causality_errors, 0u);
}

TEST(CoVerify, LockstepPolicyDeliversSlowly) {
  CoVerifyRig rig(default_params(SyncPolicy::kLockstep), 5,
                  SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(100));
  EXPECT_EQ(rig.sink->cells_received(), 5u);
  // Lockstep grants one clock per window: far more windows than the
  // message-driven policies need.
  EXPECT_GT(rig.rtl_stats().windows, 100u);
}

TEST(CoVerify, CustomResponseHandlerOverridesDefault) {
  CoVerifyRig rig(default_params(SyncPolicy::kGlobalOrder), 4,
                  SimTime::from_us(5));
  std::vector<TimedMessage> captured;
  rig.session.set_response_handler(
      [&](const TimedMessage& m) { captured.push_back(m); });
  rig.session.run_until(SimTime::from_us(200));
  EXPECT_EQ(captured.size(), 4u);
  EXPECT_EQ(rig.sink->cells_received(), 0u);  // default path bypassed
  for (const auto& m : captured) {
    EXPECT_TRUE(m.cell.has_value());
  }
}

}  // namespace
}  // namespace castanet::cosim
