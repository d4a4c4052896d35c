// Message-level transports over real byte pipes.
//
// message.hpp defines the MessageTransport seam and its in-process default
// (MessageChannel).  This header adds the second implementation, closer to
// the IPC the paper actually ran with: messages serialized
// (castanet/wire.hpp) and carried over an AF_UNIX stream socket
// (core/transport.hpp) looped back inside the session's process.  (Hosting
// a backend in another process is castanet/remote.hpp's job.)  The transport
// conformance suite checks that a session run over either transport
// produces byte-identical results.  The seam is send() and receive() only:
// the session learns that nothing is pending from receive() returning
// nullopt.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "src/castanet/message.hpp"
#include "src/core/transport.hpp"

namespace castanet::cosim {

/// Which MessageTransport implementation a session should construct.
enum class TransportKind {
  kInProcess,  ///< MessageChannel: plain in-process queue (default)
  kSocket,     ///< SocketMessageTransport: framed wire over AF_UNIX loopback
};

const char* to_string(TransportKind kind);
/// Parses "in-process"/"inprocess" or "socket" (experiment files, CLI).
/// Throws ConfigError on anything else.
TransportKind transport_kind_from_string(const std::string& s);

/// MessageTransport carried over a FramePipe pair: send() encodes the
/// message with the canonical wire format and writes one frame; receive()
/// reads frames and decodes.  Both endpoints of an AF_UNIX socketpair
/// loopback are owned by this object, so every message round-trips through
/// real kernel socket buffers and the real serializer, which is exactly
/// what the conformance suite wants to exercise against MessageChannel.
///
/// To keep kernel buffer occupancy bounded without threads, every send()
/// eagerly drains arrived frames into an in-process inbox; receive() serves
/// from the inbox first.  FIFO order is preserved end to end.
class SocketMessageTransport final : public MessageTransport {
 public:
  /// Loopback over a fresh AF_UNIX socketpair.  Throws IoError on failure.
  SocketMessageTransport();

  void send(TimedMessage m) override;
  std::optional<TimedMessage> receive() override;

  std::uint64_t messages_sent() const override { return sent_; }

 private:
  /// Moves every frame already arrived on the socket into inbox_.
  void pump();

  std::unique_ptr<transport::FramePipe> tx_;
  std::unique_ptr<transport::FramePipe> rx_;
  std::deque<TimedMessage> inbox_;
  std::uint64_t sent_ = 0;
};

/// Constructs the transport a session's Params ask for.
std::unique_ptr<MessageTransport> make_transport(TransportKind kind);

}  // namespace castanet::cosim
