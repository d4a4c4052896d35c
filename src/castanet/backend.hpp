// The backend abstraction behind the paper's testbench-reuse promise (§3.3,
// Fig. 5): the same CASTANET environment — traffic models, gateway, sync
// protocol, comparator — drives the algorithm reference model, the VHDL DUT
// and the fabricated chip on the test board.  A DutBackend is one such
// attachment point, and the base class owns everything they share: the one
// ConservativeSync instance (inputs declared with their δ_j), the response
// buffer and its drain, the respond*() helpers and the backend's clock.  A
// subclass only says how deliverable messages reach its device
// (advance_to) and, optionally, what happens at the end of a run (finish).
//
// Three implementations here (RemoteBackend, castanet/remote.hpp, is the
// fourth):
//   RtlBackend       — rtl::Simulator + CosimEntity (the "VSS" path of
//                      Fig. 2); δ_j are real processing delays, and the
//                      clock is the HDL kernel's.
//   ReferenceBackend — the hw/reference behavioral models as an
//                      instantaneous-δ backend: deliverable messages are
//                      applied as plain function calls at their own time
//                      stamps, responses carry the stimulus time stamp.
//   BoardBackend     — the RAVEN board model (§3.3): deliverable cells are
//                      batched into hardware test cycles and replayed
//                      through a HardwareTestBoard in (modeled) real time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/castanet/board_driver.hpp"
#include "src/castanet/entity.hpp"
#include "src/castanet/message.hpp"
#include "src/castanet/sync.hpp"
#include "src/core/telemetry.hpp"
#include "src/rtl/simulator.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::cosim {

class DutBackend {
 public:
  DutBackend(std::string name, ConservativeSync::Params sync_params)
      : name_(std::move(name)), sync_(sync_params) {}
  virtual ~DutBackend() = default;
  DutBackend(const DutBackend&) = delete;
  DutBackend& operator=(const DutBackend&) = delete;

  const std::string& name() const { return name_; }

  /// This backend's conservative synchronization instance.  Every backend
  /// owns exactly one; the session pushes every gateway message into every
  /// attached backend's sync, so causality is checked per backend.
  ConservativeSync& sync() { return sync_; }
  const ConservativeSync& sync() const { return sync_; }

  /// Feeds one message (or pure time update) from the network side.
  /// Virtual so proxy backends (RemoteBackend) can forward the identical
  /// stream across a process boundary while mirroring it locally.
  virtual void push(const TimedMessage& m) { sync_.push(m); }

  /// Current safe window (exclusive) for this backend.
  SimTime window() const { return sync_.window(); }

  /// This backend's current simulated time: the time its last advance_to
  /// reached (RtlBackend reads its HDL kernel's clock instead).
  virtual SimTime now() const { return now_; }

  /// Grants windows until the protocol stops making progress below `limit`
  /// (the same convergence loop for every backend: message-driven policies
  /// converge in one iteration, lockstep needs one per clock period).
  /// After each advance the sync records the reached time for its lag
  /// statistics and invariant.
  void catch_up(SimTime limit);

  /// End-of-run hook, invoked once per VerificationSession::run_until after
  /// the final catch-up: flush anything batched (board test cycles) and
  /// emit final responses (register readbacks).
  virtual void finish(SimTime at) { (void)at; }

  /// Emits a response on `stream` stamped `ts`: the stimulus time stamp for
  /// an instantaneous reaction, HDL time for CosimEntity's monitors.
  void respond(MessageType stream, SimTime ts, const atm::Cell& c);
  void respond_words(MessageType stream, SimTime ts,
                     std::vector<std::uint64_t> words);

  /// Moves every response emitted since the last call into `out`
  /// (appended), in emission order.  Virtual so a traced wrapper can time
  /// it; every backend shares this one buffer.
  virtual void drain_responses(std::vector<TimedMessage>& out);

  /// Assigns this backend's timeline row in the Chrome trace; the session
  /// assigns one per backend ("backend:<name>") at the start of a traced
  /// run.  RtlBackend forwards the row to its HDL kernel so kernel slices
  /// nest under this backend's grant spans.
  virtual void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }
  telemetry::TrackId telemetry_track() const { return telemetry_track_; }

  /// Publishes this backend's own rows into the hub, each name prefixed
  /// with `prefix` ("backend.<name>.").  VerificationSession::publish_metrics
  /// calls it after the rows every backend shares; no-op by default.
  virtual void publish_metrics(const std::string& prefix) const {
    (void)prefix;
  }

 protected:
  /// Applies deliverable messages with ts <= `target` and advances this
  /// backend's simulated time to `target` (inclusive): now() == `target`
  /// afterwards.
  virtual void advance_to(SimTime target) = 0;

  /// Queues an already-built response (RemoteBackend relays its host's).
  void respond(TimedMessage m) { responses_.push_back(std::move(m)); }

  /// The clock now() reports; advance_to and finish move it.
  SimTime now_;

 private:
  std::string name_;
  ConservativeSync sync_;
  std::vector<TimedMessage> responses_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

/// The Fig. 2 HDL path: an rtl::Simulator plus the CosimEntity that maps
/// abstract messages onto bit-level stimulus (§3.2) and turns monitor
/// observations into responses.  The entity declares its inputs into this
/// backend's sync and responds through this backend's buffer; advance_to
/// schedules each deliverable message's apply at its time stamp inside the
/// kernel and runs the kernel to the target.
class RtlBackend : public DutBackend {
 public:
  RtlBackend(std::string name, rtl::Simulator& hdl,
             ConservativeSync::Params sync_params);

  /// The co-simulation entity: register_input(type, δ, apply) declares
  /// inputs; monitors call entity().send_cell_response(...).
  CosimEntity& entity() { return entity_; }

  /// The HDL kernel this backend advances (netlist introspection for the
  /// lint analyzers).
  rtl::Simulator& hdl() { return hdl_; }
  const rtl::Simulator& hdl() const { return hdl_; }

  /// Optional end-of-run hook (e.g. read out final registers through the
  /// entity); runs before the final response drain.
  void set_finish_hook(std::function<void(RtlBackend&, SimTime)> hook) {
    finish_hook_ = std::move(hook);
  }

  /// The HDL kernel's time.
  SimTime now() const override;
  void finish(SimTime at) override;
  void set_telemetry_track(telemetry::TrackId track) override;
  /// Every rtl::KernelStats field as a "<prefix>kernel.<field>" counter.
  void publish_metrics(const std::string& prefix) const override;

 protected:
  void advance_to(SimTime target) override;

 private:
  rtl::Simulator& hdl_;
  CosimEntity entity_;
  std::function<void(RtlBackend&, SimTime)> finish_hook_;
};

/// An algorithm reference model as a backend.  δ is instantaneous: a
/// deliverable message is applied as a plain function call, and responses
/// emitted during apply default to the stimulus time stamp — the reference
/// reacts "within" the message.  The sync instance still enforces the full
/// protocol (declared inputs, causality check, lag accounting), so the
/// reference path is verified under the same rules as the HDL path.
class ReferenceBackend : public DutBackend {
 public:
  ReferenceBackend(std::string name, ConservativeSync::Params sync_params);

  /// Registers input `type` with δ = `delta_cycles`; `apply` is invoked per
  /// deliverable message in time-stamp order.  Call respond()/
  /// respond_words() from inside to emit responses.
  using ApplyFn = std::function<void(const TimedMessage&)>;
  void register_input(MessageType type, std::uint64_t delta_cycles,
                      ApplyFn apply);

  /// Optional end-of-run hook (e.g. emit final counter values).
  void set_finish_hook(std::function<void(ReferenceBackend&, SimTime)> hook) {
    finish_hook_ = std::move(hook);
  }

  void finish(SimTime at) override;
  std::uint64_t messages_applied() const { return applied_; }

 protected:
  void advance_to(SimTime target) override;

 private:
  std::map<MessageType, ApplyFn> apply_;
  std::function<void(ReferenceBackend&, SimTime)> finish_hook_;
  std::uint64_t applied_ = 0;
};

/// The §3.3 board path as a backend: deliverable cell messages are buffered
/// and replayed through a HardwareTestBoard in batches of hardware test
/// cycles (SW activity -> HW activity -> readback).  Each batch is rebased
/// to its first cell's time stamp so vector memories stay small over long
/// runs; inter-batch idle time is not replayed (the board verifies function
/// and at-speed behavior, not long-term idle).  Responses are the finish
/// hook's board register readbacks.
class BoardBackend : public DutBackend {
 public:
  /// Deliverable cells buffered before a hardware test-cycle batch runs;
  /// remaining cells flush in finish().
  static constexpr std::size_t kCellsPerBatch = 64;

  struct Params {
    ConservativeSync::Params sync;
    BoardCellStream::Params stream;
    /// WALL-CLOCK time one hardware test cycle occupies the (shared,
    /// SCSI-attached) test board — the §3.3 board runs in real time, so a
    /// batch of k test cycles blocks the calling process for k times this.
    /// Zero (default) models an infinitely fast board and keeps every
    /// existing rig untouched.  Simulated time is NOT affected; this is the
    /// hardware-in-the-loop latency the session farm overlaps across worker
    /// processes.
    std::chrono::microseconds real_time_per_test_cycle{0};
  };

  /// `board` must be configured; `dut` is the device on it.  Both outlive
  /// the backend.
  BoardBackend(std::string name, board::HardwareTestBoard& board,
               board::BehavioralDut& dut, Params p);

  /// Declares the cell stream replayed through the board.
  void register_cell_input(MessageType type, std::uint64_t delta_cycles);

  /// End-of-run hook, invoked after the last batch ran: read registers
  /// through the board (board_bus_read) and respond_words() the results.
  void set_finish_hook(std::function<void(BoardBackend&, SimTime)> hook) {
    finish_hook_ = std::move(hook);
  }

  board::HardwareTestBoard& board() { return board_; }
  const board::HardwareTestBoard& board() const { return board_; }
  board::BehavioralDut& dut() { return dut_; }
  const Params& params() const { return p_; }

  /// Accumulated run statistics over every batch so far.
  const BoardCellStream::Result& totals() const { return totals_; }

  void finish(SimTime at) override;

 protected:
  void advance_to(SimTime target) override;

 private:
  void run_pending();

  board::HardwareTestBoard& board_;
  board::BehavioralDut& dut_;
  BoardCellStream stream_;
  Params p_;
  std::vector<traffic::CellArrival> pending_;
  BoardCellStream::Result totals_;
  std::function<void(BoardBackend&, SimTime)> finish_hook_;
};

}  // namespace castanet::cosim
