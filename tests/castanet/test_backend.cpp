// The DutBackend contract every backend shares through its base class: the
// inputs a backend declares land in the one sync() it exposes, responses
// drain exactly once and in emission order, and each response carries its
// backend's stamp — HDL time for CosimEntity's responses, the caller's
// time for respond()/respond_words().  Run over RtlBackend,
// ReferenceBackend and BoardBackend; RemoteBackend is covered through its
// forked host in test_remote_backend.cpp.
#include "src/castanet/backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/castanet/board_driver.hpp"
#include "src/rtl/module.hpp"

namespace castanet::cosim {
namespace {

constexpr MessageType kIn = 0;    ///< the declared cell input
constexpr MessageType kOut = 1;   ///< one response per delivered cell
constexpr MessageType kNote = 2;  ///< the test's own respond_words()
constexpr MessageType kDone = 3;  ///< the finish hook's cell count
constexpr std::uint64_t kDelta = 2;
constexpr SimTime kClk = SimTime::from_ns(50);
/// How long after a delivery the RTL rig's monitor reports (HDL time).
constexpr SimTime kReact = SimTime::from_ns(150);
constexpr SimTime kHorizon = SimTime::from_us(10);

ConservativeSync::Params sync_params() {
  return ConservativeSync::Params{SyncPolicy::kGlobalOrder, kClk};
}

std::vector<SimTime> stimulus_times() {
  return {SimTime::from_us(1), SimTime::from_us(2), SimTime::from_us(3)};
}

atm::Cell cell() {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = 100;
  return c;
}

/// One backend kind, wired so that each delivered cell is answered on
/// kOut (where the backend's device answers per cell) and finish() answers
/// once on kDone with the number of cells the device saw.  `per_cell` and
/// `at_finish` hold the (stream, stamp) pairs the backend must emit, in
/// order.
struct Rig {
  virtual ~Rig() = default;
  virtual DutBackend& backend() = 0;
  std::vector<std::pair<MessageType, SimTime>> per_cell;
  std::pair<MessageType, SimTime> at_finish;
};

/// The entity answers kReact after each delivery, stamped with HDL time;
/// its finish hook answers through the entity too.
struct RtlRig : Rig {
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClk};
  RtlBackend rtl{"rtl", hdl, sync_params()};
  std::uint64_t seen = 0;

  RtlRig() {
    rtl.entity().register_input(kIn, kDelta, [this](const TimedMessage& m) {
      ++seen;
      hdl.schedule_callback(kReact, [this, c = *m.cell] {
        rtl.entity().send_cell_response(kOut, c);
      });
    });
    rtl.set_finish_hook([this](RtlBackend& b, SimTime) {
      b.entity().send_word_response(kDone, {seen});
    });
    for (const SimTime t : stimulus_times()) {
      per_cell.emplace_back(kOut, t + kReact);
    }
    at_finish = {kDone, kHorizon - SimTime::from_ps(1)};  // HDL time
  }
  DutBackend& backend() override { return rtl; }
};

/// The reference answers within the message: stamped with its time stamp.
struct ReferenceRig : Rig {
  ReferenceBackend ref{"reference", sync_params()};
  std::uint64_t seen = 0;

  ReferenceRig() {
    ref.register_input(kIn, kDelta, [this](const TimedMessage& m) {
      ++seen;
      ref.respond(kOut, m.timestamp, *m.cell);
    });
    ref.set_finish_hook([this](ReferenceBackend& b, SimTime at) {
      b.respond_words(kDone, at, {seen});
    });
    for (const SimTime t : stimulus_times()) per_cell.emplace_back(kOut, t);
    at_finish = {kDone, kHorizon};
  }
  DutBackend& backend() override { return ref; }
};

/// The accounting unit on the test board emits no cells; the finish hook
/// reads its cell counter back over the board's µP bus.
struct BoardRig : Rig {
  static constexpr std::uint64_t kRatedHz = 10'000'000;
  board::HardwareTestBoard board;
  AccountingBoardDut dut = build_accounting_dut(8, kRatedHz);
  std::unique_ptr<BoardBackend> brd;

  BoardRig() {
    board.configure(make_cell_stream_config(1));
    dut.adapter->set_max_safe_hz(kRatedHz, 7);
    dut.unit->set_tariff(0, hw::Tariff{1, 0});
    dut.unit->bind_connection({1, 100}, 0, 0);
    dut.adapter->reset();
    BoardBackend::Params p;
    p.sync = sync_params();
    p.stream = {4096, kRatedHz};
    brd = std::make_unique<BoardBackend>("board", board, *dut.adapter, p);
    brd->register_cell_input(kIn, kDelta);
    brd->set_finish_hook([this](BoardBackend& b, SimTime at) {
      board_bus_write(board, *dut.adapter, 0x00, 0);  // select connection 0
      const std::uint64_t lo = board_bus_read(board, *dut.adapter, 0x01);
      const std::uint64_t mid = board_bus_read(board, *dut.adapter, 0x02);
      b.respond_words(kDone, at, {mid << 16 | lo});
    });
    at_finish = {kDone, kHorizon};
  }
  DutBackend& backend() override { return *brd; }
};

std::unique_ptr<Rig> make_rig(const std::string& kind) {
  if (kind == "rtl") return std::make_unique<RtlRig>();
  if (kind == "reference") return std::make_unique<ReferenceRig>();
  return std::make_unique<BoardRig>();
}

class BackendContract : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendContract, OneSyncOneDrainEachResponseStampedByItsBackend) {
  const std::unique_ptr<Rig> rig = make_rig(GetParam());
  DutBackend& b = rig->backend();

  // sync() is the instance the inputs were declared into, in both forms.
  const DutBackend& cb = b;
  EXPECT_EQ(&cb.sync(), &b.sync());
  ASSERT_EQ(b.sync().declared_inputs().size(), 1u);
  EXPECT_EQ(b.sync().declared_inputs()[0].type, kIn);
  EXPECT_EQ(b.sync().declared_inputs()[0].delta_cycles, kDelta);

  for (const SimTime t : stimulus_times()) {
    b.push(make_cell_message(kIn, t, cell()));
  }
  b.push(make_time_update(kHorizon));
  EXPECT_EQ(b.sync().messages_received(), stimulus_times().size());
  EXPECT_EQ(b.sync().time_updates_received(), 1u);

  b.catch_up(kHorizon);
  EXPECT_EQ(b.now(), kHorizon - SimTime::from_ps(1));
  EXPECT_GT(b.sync().windows_granted(), 0u);
  // The caller's stamp, whatever the backend's clock reads.
  b.respond_words(kNote, SimTime::from_us(4), {42});
  b.finish(kHorizon);

  std::vector<std::pair<MessageType, SimTime>> want = rig->per_cell;
  want.emplace_back(kNote, SimTime::from_us(4));
  want.push_back(rig->at_finish);

  std::vector<TimedMessage> out;
  b.drain_responses(out);
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].type, want[i].first) << "response " << i;
    EXPECT_EQ(out[i].timestamp, want[i].second) << "response " << i;
  }
  ASSERT_EQ(out.back().words.size(), 1u);
  EXPECT_EQ(out.back().words[0], stimulus_times().size());  // cells seen

  // Drained once: a second drain appends nothing.
  std::vector<TimedMessage> again;
  b.drain_responses(again);
  EXPECT_TRUE(again.empty());
}

INSTANTIATE_TEST_SUITE_P(AllLocalBackends, BackendContract,
                         ::testing::Values("rtl", "reference", "board"));

}  // namespace
}  // namespace castanet::cosim
