#include "src/castanet/transport.hpp"

#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"

namespace castanet::cosim {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "in-process";
    case TransportKind::kSocket: return "socket";
  }
  return "?";
}

TransportKind transport_kind_from_string(const std::string& s) {
  if (s == "in-process" || s == "inprocess" || s == "in_process") {
    return TransportKind::kInProcess;
  }
  if (s == "socket") return TransportKind::kSocket;
  throw ConfigError("unknown transport kind '" + s +
                    "' (expected \"in-process\" or \"socket\")");
}

SocketMessageTransport::SocketMessageTransport() {
  auto [a, b] = transport::make_socket_pipe();
  tx_ = std::move(a);
  rx_ = std::move(b);
}

void SocketMessageTransport::send(TimedMessage m) {
  const std::vector<std::uint8_t> frame = wire::encode_message(m);
  if (!tx_->send_frame(frame)) {
    throw ProtocolError("socket transport: peer closed while sending");
  }
  ++sent_;
  // Keep the kernel buffer drained so a long send burst can never fill it
  // and block the (single) simulation thread against itself.
  pump();
}

void SocketMessageTransport::pump() {
  std::vector<std::uint8_t> frame;
  while (rx_->recv_frame(frame, 0) == transport::RecvStatus::kFrame) {
    inbox_.push_back(wire::decode_message(frame));
  }
}

std::optional<TimedMessage> SocketMessageTransport::receive() {
  if (inbox_.empty()) pump();
  if (inbox_.empty()) return std::nullopt;
  TimedMessage m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

std::unique_ptr<MessageTransport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return std::make_unique<MessageChannel>();
    case TransportKind::kSocket:
      return std::make_unique<SocketMessageTransport>();
  }
  throw LogicError("make_transport: bad TransportKind");
}

}  // namespace castanet::cosim
