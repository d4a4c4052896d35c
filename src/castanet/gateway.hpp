// The CASTANET interface process on the network-simulator side (Fig. 2:
// "The CASTANET interface process in OPNET manages the proper initialization
// of the VHDL simulator and the hardware test board and handles the message
// exchange").
//
// It is an ordinary process model: packets arriving on its input streams are
// forwarded to the HDL side as time-stamped messages (stream s -> message
// type s); responses injected by the orchestrator are emitted as packets on
// the matching output streams, so the rest of the network model is
// oblivious to the DUT being simulated elsewhere.
#pragma once

#include "src/castanet/message.hpp"
#include "src/netsim/process.hpp"

namespace castanet::cosim {

class GatewayProcess : public netsim::ProcessModel {
 public:
  /// `to_hdl` is any MessageTransport — the in-process channel by default,
  /// or a socket transport when the HDL side lives in another process.
  GatewayProcess(MessageTransport& to_hdl, unsigned streams);

  void handle_interrupt(const netsim::Interrupt& intr) override;

  /// Emits a response packet on output stream `stream` (orchestrator use).
  void emit_response(unsigned stream, netsim::Packet p);

  unsigned streams() const { return streams_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t responses_emitted() const { return responses_; }

 private:
  MessageTransport& to_hdl_;
  unsigned streams_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t responses_ = 0;
};

}  // namespace castanet::cosim
