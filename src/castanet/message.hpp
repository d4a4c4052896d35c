// Time-stamped typed messages and the channel connecting the simulators.
//
// "Communication between both simulators is based on the exchange of
// time-stamped messages updating the receiving simulator with the current
// simulation time of the originator" (§3.1).  In the paper the transport is
// UNIX IPC (to VSS) or the SCSI bus (to the test board); here both ends live
// in one process, so MessageChannel is an in-process queue with modeled
// per-message transport overhead accounted for the benches.
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

/// Abstract unidirectional FIFO transport of timed messages between the
/// network simulator and the HDL side — the seam the paper's UNIX-IPC
/// coupling occupies.  Two implementations exist: MessageChannel (below),
/// an in-process queue and the default, and SocketMessageTransport
/// (castanet/transport.hpp), which serializes every message over an AF_UNIX
/// stream socket.  Both account identical MODELED per-message overhead, so
/// swapping the physical transport never changes simulated time.
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
  virtual bool empty() const = 0;
  virtual std::size_t pending() const = 0;

  virtual std::uint64_t messages_sent() const = 0;
  /// Accumulated modeled transport cost (the paper's IPC syscall pair).
  virtual SimTime transport_overhead() const = 0;
  /// Stable identifier ("in-process", "socket") for telemetry and lint.
  virtual const char* kind_name() const = 0;

 protected:
  MessageTransport() = default;
};

/// Unidirectional FIFO channel with transfer accounting — the in-process
/// MessageTransport implementation (and the zero-regression default).
class MessageChannel final : public MessageTransport {
 public:
  struct Params {
    /// Modeled cost per message (UNIX IPC syscall pair in the paper's
    /// setup); summed into transport_overhead() for the E1/E3 benches.
    SimTime per_message_overhead = SimTime::zero();
  };

  MessageChannel() = default;
  explicit MessageChannel(Params p) : p_(p) {}

  void send(TimedMessage m) override;
  std::optional<TimedMessage> receive() override;
  bool empty() const override { return queue_.empty(); }
  std::size_t pending() const override { return queue_.size(); }

  std::uint64_t messages_sent() const override { return sent_; }
  SimTime transport_overhead() const override { return overhead_; }
  const char* kind_name() const override { return "in-process"; }

 private:
  Params p_;
  std::deque<TimedMessage> queue_;
  std::uint64_t sent_ = 0;
  SimTime overhead_;
};

}  // namespace castanet::cosim
