// Time-stamped typed messages and the channel carrying them from the
// network simulator's gateway to the session.
//
// "Communication between both simulators is based on the exchange of
// time-stamped messages updating the receiving simulator with the current
// simulation time of the originator" (§3.1).  In the paper the transport is
// UNIX IPC (to VSS) or the SCSI bus (to the test board); here both ends
// usually live in one process, so MessageChannel is an in-process queue.
// Responses travel the other way through each backend's own response
// buffer (DutBackend::respond, drain_responses), not through a channel.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/dsim/time.hpp"

namespace castanet::cosim {

/// Message type identifier; one per logical DUT input (one per input queue
/// I_j of the synchronization protocol).
using MessageType = std::uint32_t;

struct TimedMessage {
  MessageType type = 0;
  SimTime timestamp;
  /// Abstract payload.  Cells are the common case; register operations and
  /// raw words use `words`.
  std::optional<atm::Cell> cell;
  std::vector<std::uint64_t> words;
  /// Pure time update carrying no data (the originator's clock only).
  bool time_update_only = false;
};

TimedMessage make_cell_message(MessageType type, SimTime ts,
                               const atm::Cell& c);
TimedMessage make_word_message(MessageType type, SimTime ts,
                               std::vector<std::uint64_t> words);
TimedMessage make_time_update(SimTime ts);

/// Abstract unidirectional FIFO transport of timed messages from the
/// network simulator's gateway to the session — the seam the paper's
/// UNIX-IPC coupling occupies.  Two implementations exist: MessageChannel
/// (below), an in-process queue and the default, and SocketMessageTransport
/// (castanet/transport.hpp), which serializes every message over an AF_UNIX
/// stream socket.  Neither moves simulated time, so swapping the physical
/// transport never changes a result.
///
/// Semantics all implementations honor: send() never blocks the simulation
/// indefinitely, receive() is non-blocking (nullopt when nothing is
/// pending), and delivery is reliable and ordered.
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;
  MessageTransport(const MessageTransport&) = delete;
  MessageTransport& operator=(const MessageTransport&) = delete;

  virtual void send(TimedMessage m) = 0;
  virtual std::optional<TimedMessage> receive() = 0;

  virtual std::uint64_t messages_sent() const = 0;

 protected:
  MessageTransport() = default;
};

/// Unidirectional FIFO channel counting what it carried — the in-process
/// MessageTransport implementation (and the default).
class MessageChannel final : public MessageTransport {
 public:
  MessageChannel() = default;

  void send(TimedMessage m) override;
  std::optional<TimedMessage> receive() override;

  std::uint64_t messages_sent() const override { return sent_; }

 private:
  std::deque<TimedMessage> queue_;
  std::uint64_t sent_ = 0;
};

}  // namespace castanet::cosim
