// The backend abstraction behind the paper's testbench-reuse promise (§3.3,
// Fig. 5): the same CASTANET environment — traffic models, gateway, sync
// protocol, comparator — drives the algorithm reference model, the VHDL DUT
// and the fabricated chip on the test board.  A DutBackend is one such
// attachment point: it owns a ConservativeSync instance (inputs declared
// with their δ_j), consumes the gateway's time-stamped messages, catches up
// to granted windows, and produces time-stamped responses.
//
// Three implementations:
//   RtlBackend       — rtl::Simulator + CosimEntity (the "VSS" path of
//                      Fig. 2); δ_j are real processing delays.
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
#include <memory>
#include <string>
#include <vector>

#include "src/castanet/board_driver.hpp"
#include "src/castanet/entity.hpp"
#include "src/castanet/message.hpp"
#include "src/castanet/sync.hpp"
#include "src/core/telemetry.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::cosim {

class DutBackend {
 public:
  explicit DutBackend(std::string name) : name_(std::move(name)) {}
  virtual ~DutBackend() = default;
  DutBackend(const DutBackend&) = delete;
  DutBackend& operator=(const DutBackend&) = delete;

  const std::string& name() const { return name_; }

  /// This backend's conservative synchronization instance.  Every backend
  /// owns exactly one; the session pushes every gateway message into every
  /// attached backend's sync, so causality is checked per backend.
  virtual ConservativeSync& sync() = 0;
  const ConservativeSync& sync() const {
    return const_cast<DutBackend*>(this)->sync();
  }

  /// Feeds one message (or pure time update) from the network side.
  /// Virtual so proxy backends (RemoteBackend) can forward the identical
  /// stream across a process boundary while mirroring it locally.
  virtual void push(const TimedMessage& m) { sync().push(m); }

  /// Current safe window (exclusive) for this backend.
  SimTime window() const { return sync().window(); }

  /// This backend's current simulated time.
  virtual SimTime now() const = 0;

  /// Grants windows until the protocol stops making progress below `limit`
  /// (the same convergence loop for every backend: message-driven policies
  /// converge in one iteration, lockstep needs one per clock period).
  void catch_up(SimTime limit);

  /// End-of-run hook, invoked once per VerificationSession::run_until after
  /// the final catch-up: flush anything batched (board test cycles) and
  /// emit final responses (register readbacks).
  virtual void finish(SimTime at) { (void)at; }

  /// Moves every response produced since the last call into `out`
  /// (appended), time-stamped with this backend's clock.
  virtual void drain_responses(std::vector<TimedMessage>& out) = 0;

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
  /// backend's simulated time to `target` (inclusive).
  virtual void advance_to(SimTime target) = 0;

 private:
  std::string name_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

/// The Fig. 2 HDL path: an rtl::Simulator plus the CosimEntity that maps
/// abstract messages onto bit-level stimulus (§3.2) and collects monitor
/// responses.  The entity's sync instance is the backend's sync instance.
class RtlBackend : public DutBackend {
 public:
  RtlBackend(std::string name, rtl::Simulator& hdl,
             ConservativeSync::Params sync_params);

  /// The co-simulation entity: register_input(type, δ, apply) declares
  /// inputs; monitors call entity().send_cell_response(...).
  CosimEntity& entity() { return *entity_; }

  /// The HDL kernel this backend advances (netlist introspection for the
  /// lint analyzers).
  rtl::Simulator& hdl() { return hdl_; }
  const rtl::Simulator& hdl() const { return hdl_; }

  /// Response channel (HDL -> net); counts the responses sent.
  MessageChannel& response_channel() { return to_net_; }
  const MessageChannel& response_channel() const { return to_net_; }

  /// Optional end-of-run hook (e.g. read out final registers through the
  /// entity); runs before the final response drain.
  void set_finish_hook(std::function<void(RtlBackend&, SimTime)> hook) {
    finish_hook_ = std::move(hook);
  }

  ConservativeSync& sync() override { return entity_->sync(); }
  SimTime now() const override;
  void finish(SimTime at) override;
  void drain_responses(std::vector<TimedMessage>& out) override;
  void set_telemetry_track(telemetry::TrackId track) override;
  /// Every rtl::KernelStats field as a "<prefix>kernel.<field>" counter.
  void publish_metrics(const std::string& prefix) const override;

 protected:
  void advance_to(SimTime target) override;

 private:
  rtl::Simulator& hdl_;
  MessageChannel to_net_;
  std::unique_ptr<CosimEntity> entity_;
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

  /// Emits a response on `stream`; `ts` is usually the stimulus message's
  /// time stamp (instantaneous reaction).
  void respond(MessageType stream, SimTime ts, const atm::Cell& c);
  void respond_words(MessageType stream, SimTime ts,
                     std::vector<std::uint64_t> words);

  /// Optional end-of-run hook (e.g. emit final counter values).
  void set_finish_hook(std::function<void(ReferenceBackend&, SimTime)> hook) {
    finish_hook_ = std::move(hook);
  }

  ConservativeSync& sync() override { return sync_; }
  SimTime now() const override { return now_; }
  void finish(SimTime at) override;
  void drain_responses(std::vector<TimedMessage>& out) override;
  std::uint64_t messages_applied() const { return applied_; }

 protected:
  void advance_to(SimTime target) override;

 private:
  ConservativeSync sync_;
  std::map<MessageType, ApplyFn> apply_;
  std::vector<TimedMessage> responses_;
  std::function<void(ReferenceBackend&, SimTime)> finish_hook_;
  SimTime now_;
  std::uint64_t applied_ = 0;
};

/// The §3.3 board path as a backend: deliverable cell messages are buffered
/// and replayed through a HardwareTestBoard in batches of hardware test
/// cycles (SW activity -> HW activity -> readback).  Each batch is rebased
/// to its first cell's time stamp so vector memories stay small over long
/// runs; inter-batch idle time is not replayed (the board verifies function
/// and at-speed behavior, not long-term idle).  Responses (board register
/// readbacks via the finish hook, reassembled output cells when the DUT
/// produces any) carry board-derived time stamps.
class BoardBackend : public DutBackend {
 public:
  struct Params {
    ConservativeSync::Params sync;
    BoardCellStream::Params stream;
    /// Deliverable cells buffered before a hardware test-cycle batch runs;
    /// remaining cells flush in finish().
    std::size_t cells_per_batch = 64;
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

  /// Emits a response on `stream` (typically from the finish hook, after
  /// µP-bus readbacks through the board).
  void respond_words(MessageType stream, SimTime ts,
                     std::vector<std::uint64_t> words);

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

  ConservativeSync& sync() override { return sync_; }
  SimTime now() const override { return now_; }
  void finish(SimTime at) override;
  void drain_responses(std::vector<TimedMessage>& out) override;

 protected:
  void advance_to(SimTime target) override;

 private:
  void run_pending();

  ConservativeSync sync_;
  board::HardwareTestBoard& board_;
  board::BehavioralDut& dut_;
  BoardCellStream stream_;
  Params p_;
  MessageType cell_stream_ = 0;
  std::vector<traffic::CellArrival> pending_;
  std::vector<TimedMessage> responses_;
  BoardCellStream::Result totals_;
  std::function<void(BoardBackend&, SimTime)> finish_hook_;
  SimTime now_;
};

}  // namespace castanet::cosim
