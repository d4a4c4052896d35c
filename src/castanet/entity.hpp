// The co-simulation entity instantiated inside the HDL simulation (Fig. 2:
// "a C-language based co-simulation entity is instantiated, that receives
// messages from the OPNET-side interface process.  It also performs signal
// conditioning, e.g. mapping a data structure to bit- or word-level signal
// streams and generation of additional control signals").
//
// Message types are registered with an apply function (usually one of the
// mapping.hpp conversion helpers feeding a driver); DUT responses captured
// by monitors are sent back time-stamped with the HDL simulator's clock.
// The entity is a view onto its RtlBackend, which creates it: inputs are
// declared into the backend's sync, responses go into the backend's
// response buffer, and RtlBackend::advance_to schedules each deliverable
// message's apply inside the HDL kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/castanet/message.hpp"

namespace castanet::cosim {

class RtlBackend;

class CosimEntity {
 public:
  CosimEntity(const CosimEntity&) = delete;
  CosimEntity& operator=(const CosimEntity&) = delete;

  /// Registers input message type `type`: δ = `delta_cycles`, and `apply`
  /// invoked inside the HDL simulator at the message's time stamp.
  using ApplyFn = std::function<void(const TimedMessage&)>;
  void register_input(MessageType type, std::uint64_t delta_cycles,
                      ApplyFn apply);

  /// Called by DUT-side monitors: sends a response message stamped with the
  /// current HDL time.
  void send_cell_response(MessageType type, const atm::Cell& c);
  void send_word_response(MessageType type, std::vector<std::uint64_t> words);

 private:
  friend class RtlBackend;
  explicit CosimEntity(RtlBackend& backend) : backend_(backend) {}

  RtlBackend& backend_;
  std::map<MessageType, ApplyFn> apply_;
};

}  // namespace castanet::cosim
