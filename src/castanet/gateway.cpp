#include "src/castanet/gateway.hpp"

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::cosim {

GatewayProcess::GatewayProcess(MessageTransport& to_hdl, unsigned streams)
    : to_hdl_(to_hdl), streams_(streams) {
  require(streams > 0, "GatewayProcess: need at least one stream");
}

void GatewayProcess::handle_interrupt(const netsim::Interrupt& intr) {
  if (intr.kind != netsim::InterruptKind::kStream) return;
  require(intr.stream < streams_, "GatewayProcess: stream out of range");
  const MessageType type = intr.stream;
  if (intr.packet.has_cell()) {
    if (telemetry::enabled()) {
      // The gateway is the choke point every DUT-bound cell crosses: stamp
      // its entry into the measured region on the per-flow registry.
      const atm::Cell& c = intr.packet.cell();
      simulation().flows().note_in({c.header.vpi, c.header.vci, intr.stream},
                                   now());
    }
    to_hdl_.send(make_cell_message(type, now(), intr.packet.cell()));
  } else {
    // Field packets travel as words: (id, then named fields in map order is
    // not stable — models requiring fields should carry cells or use the
    // word-message API directly).
    to_hdl_.send(make_word_message(type, now(), {intr.packet.id()}));
  }
  ++forwarded_;
}

void GatewayProcess::emit_response(unsigned stream, netsim::Packet p) {
  require(stream < streams_, "GatewayProcess: response stream out of range");
  send(stream, std::move(p));
  ++responses_;
}

}  // namespace castanet::cosim
