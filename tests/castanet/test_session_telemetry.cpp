// Session telemetry: the hub records spans from the session's grants, the
// HDL kernel and the network kernel on per-backend timeline rows, and the
// end-of-run published metrics cover the session and every backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"
#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/traffic/processes.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClkPeriod = SimTime::from_ns(50);

/// Same rig as test_session.cpp: RTL cell receiver (primary) plus an echo
/// reference backend.
struct TelemetryRig {
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
  ReferenceBackend refb;
  VerificationSession session;
  traffic::SinkProcess* sink = nullptr;

  TelemetryRig(std::uint64_t cells, SimTime period)
      : rtl("rtl", hdl, sync_params()),
        refb("reference", sync_params()),
        session(net, env, 1, VerificationSession::Params{}) {
    session.attach(rtl);
    session.attach(refb);
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
    hdl.add_process("respond", {rx.cell_valid.id()}, [this] {
      if (rx.cell_valid.rose()) {
        rtl.entity().send_cell_response(
            0, hw::bits_to_cell(rx.cell_out.read(), false));
      }
    });
    refb.register_input(0, 1, [this](const TimedMessage& m) {
      refb.respond(0, m.timestamp, *m.cell);
    });
  }

  static ConservativeSync::Params sync_params() {
    ConservativeSync::Params p;
    p.policy = SyncPolicy::kGlobalOrder;
    p.clock_period = kClkPeriod;
    return p;
  }
};

class SessionTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::Hub::instance().reset(); }
  void TearDown() override { telemetry::Hub::instance().reset(); }
};

bool snapshot_has(const telemetry::MetricsSnapshot& snap,
                  const std::string& name) {
  for (const auto& row : snap.rows) {
    if (row.name == name) return true;
  }
  return false;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_and_remove(const std::string& path) {
  std::ostringstream body;
  body << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return body.str();
}

TEST_F(SessionTelemetryTest, RunRecordsSpansAndMetrics) {
  auto& hub = telemetry::Hub::instance();
  const std::string path =
      ::testing::TempDir() + "castanet_session_trace.json";
  hub.enable();
  ASSERT_TRUE(hub.stream_trace_to(path));
  TelemetryRig rig(20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(500));
  rig.session.comparator().finish();
  ASSERT_TRUE(rig.session.comparator().clean())
      << rig.session.comparator().report();

  // Grant spans, the kernel slices inside them, and the network kernel's
  // slices all landed in the trace file, which parses.
  ASSERT_TRUE(hub.stop_trace_stream());
  EXPECT_GT(hub.trace_events_streamed(), 0u);
  const std::string trace = read_and_remove(path);
  EXPECT_NO_THROW(json::parse(trace));
  EXPECT_NE(trace.find("\"grant\""), std::string::npos);
  EXPECT_NE(trace.find("\"rtl.slice\""), std::string::npos);
  // Every kernel-slice argument survives into the trace.
  for (const char* arg : {"\"activations\"", "\"delta_cycles\"",
                          "\"writes_elided\"", "\"callbacks\""}) {
    EXPECT_NE(trace.find(arg), std::string::npos) << arg;
  }
  EXPECT_NE(trace.find("\"net.slice\""), std::string::npos);
  // One timeline row per backend plus the network scheduler.
  EXPECT_NE(trace.find("backend:rtl"), std::string::npos);
  EXPECT_NE(trace.find("backend:reference"), std::string::npos);
  EXPECT_NE(trace.find("\"net\""), std::string::npos);

  // Published metrics cover the session and every backend.
  const telemetry::MetricsSnapshot snap = hub.snapshot();
  EXPECT_TRUE(snapshot_has(snap, "session.net_events"));
  EXPECT_TRUE(snapshot_has(snap, "session.divergences"));
  EXPECT_TRUE(snapshot_has(snap, "backend.rtl.windows"));
  EXPECT_TRUE(snapshot_has(snap, "backend.rtl.queue_depth.0"));
  EXPECT_TRUE(snapshot_has(snap, "backend.reference.windows"));

  // §3.1's lag is recorded once per backend, as a histogram with one
  // sample per grant, and there is no duplicate "_hist" row.
  const auto stats = rig.session.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  for (const auto& b : stats.backends) {
    const std::string lag = "backend." + b.name + ".lag_seconds";
    std::size_t lag_rows = 0;
    for (const auto& row : snap.rows) {
      if (row.name.rfind(lag, 0) == 0) ++lag_rows;
    }
    EXPECT_EQ(lag_rows, 1u) << lag;
    const telemetry::MetricRow* row = snap.find(lag);
    ASSERT_NE(row, nullptr) << lag;
    EXPECT_EQ(row->kind, telemetry::MetricRow::Kind::kHistogram) << lag;
    EXPECT_GT(row->count, 0u) << lag;
    EXPECT_LE(row->max, b.max_lag_seconds) << lag;
  }
  // The session's own rows are its four counters; nothing wall-clock.
  std::vector<std::string> session_rows;
  for (const auto& row : snap.rows) {
    EXPECT_FALSE(ends_with(row.name, "_hist")) << row.name;
    if (row.name.rfind("session.", 0) != 0) continue;
    session_rows.push_back(row.name);
    EXPECT_EQ(row.kind, telemetry::MetricRow::Kind::kCounter) << row.name;
  }
  const std::vector<std::string> want{
      "session.divergences", "session.messages_to_hdl", "session.net_events",
      "session.responses"};
  EXPECT_EQ(session_rows, want);

  // The RTL backend publishes every kernel counter, equal to the kernel's
  // own.  The clock is kernel data, so the timed callbacks are the message
  // deliveries alone, far fewer than the time points the edges open.
  const rtl::KernelStats& k = rig.hdl.stats();
  const std::vector<std::pair<std::string, std::uint64_t>> kernel{
      {"transactions", k.transactions},
      {"writes_elided", k.writes_elided},
      {"value_changes", k.value_changes},
      {"process_activations", k.process_activations},
      {"delta_cycles", k.delta_cycles},
      {"time_points", k.time_points},
      {"gated_skips", k.gated_skips},
      {"callbacks", k.callbacks}};
  std::size_t kernel_rows = 0;
  for (const auto& row : snap.rows) {
    if (row.name.rfind("backend.rtl.kernel.", 0) == 0) ++kernel_rows;
  }
  EXPECT_EQ(kernel_rows, kernel.size());
  for (const auto& [field, value] : kernel) {
    const telemetry::MetricRow* row = snap.find("backend.rtl.kernel." + field);
    ASSERT_NE(row, nullptr) << field;
    EXPECT_EQ(row->kind, telemetry::MetricRow::Kind::kCounter) << field;
    EXPECT_EQ(row->count, value) << field;
  }
  EXPECT_GT(k.callbacks, 0u);
  EXPECT_LT(k.callbacks, k.time_points);
  EXPECT_FALSE(snapshot_has(snap, "backend.reference.kernel.time_points"));
}

TEST_F(SessionTelemetryTest, DisabledHubRecordsNothing) {
  // A trace file attached to a disabled hub stays empty.
  auto& hub = telemetry::Hub::instance();
  const std::string path =
      ::testing::TempDir() + "castanet_session_disabled.json";
  ASSERT_TRUE(hub.stream_trace_to(path));
  TelemetryRig rig(10, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(250));
  rig.session.comparator().finish();
  EXPECT_TRUE(rig.session.comparator().clean());
  ASSERT_TRUE(hub.stop_trace_stream());
  EXPECT_EQ(hub.trace_events_streamed(), 0u);
  read_and_remove(path);
  EXPECT_TRUE(hub.snapshot().rows.empty());
  // The always-on component-local statistics still accumulate.
  const auto stats = rig.session.stats();
  EXPECT_GT(stats.backends[0].windows, 0u);
  EXPECT_EQ(stats.backends[0].causality_errors, 0u);
}

}  // namespace
}  // namespace castanet::cosim
