// The co-simulation entity instantiated inside the HDL simulation (Fig. 2:
// "a C-language based co-simulation entity is instantiated, that receives
// messages from the OPNET-side interface process.  It also performs signal
// conditioning, e.g. mapping a data structure to bit- or word-level signal
// streams and generation of additional control signals").
//
// Message types are registered with an apply function (usually one of the
// mapping.hpp conversion helpers feeding a driver); DUT responses captured
// by monitors are sent back time-stamped with the HDL simulator's clock.
#pragma once

#include <functional>
#include <map>

#include "src/castanet/message.hpp"
#include "src/castanet/sync.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::cosim {

class CosimEntity {
 public:
  CosimEntity(rtl::Simulator& hdl, MessageChannel& to_net,
              ConservativeSync::Params sync_params);

  /// Registers input message type `type`: δ = `delta_cycles`, and `apply`
  /// invoked inside the HDL simulator at the message's time stamp.
  using ApplyFn = std::function<void(const TimedMessage&)>;
  void register_input(MessageType type, std::uint64_t delta_cycles,
                      ApplyFn apply);

  /// Called by DUT-side monitors: sends a response message stamped with the
  /// current HDL time.
  void send_cell_response(MessageType type, const atm::Cell& c);
  void send_word_response(MessageType type, std::vector<std::uint64_t> words);

  /// Current safe window (exclusive) for the HDL simulator.
  SimTime window() const { return sync_.window(); }
  /// Schedules every deliverable message's apply at its time stamp and
  /// advances the HDL simulator to `target` (inclusive).
  void advance_hdl_to(SimTime target);

  /// The entity's synchronization instance; the session pushes the
  /// network side's messages into it directly.
  ConservativeSync& sync() { return sync_; }
  std::uint64_t responses_sent() const { return responses_; }

 private:
  rtl::Simulator& hdl_;
  MessageChannel& to_net_;
  ConservativeSync sync_;
  std::map<MessageType, ApplyFn> apply_;
  std::uint64_t responses_ = 0;
};

}  // namespace castanet::cosim
