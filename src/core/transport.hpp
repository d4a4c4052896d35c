// Byte-frame transport between co-simulation endpoints.
//
// The paper couples OPNET and VSS as separate UNIX processes exchanging
// time-stamped messages over IPC (§3.1); the reproduction originally
// collapsed both ends into one process.  This header restores the seam: a
// FramePipe is a reliable, ordered, bidirectional pipe of length-prefixed
// binary frames, with two implementations —
//
//   InProcessPipe — a pair of bounded mutex/cv frame queues; both endpoints
//                   live in one process (the default co-simulation setup,
//                   and the loopback used by transport conformance tests).
//   SocketPipe    — an AF_UNIX SOCK_STREAM socket; endpoints may live in
//                   different processes (the session farm's worker protocol
//                   and remote DutBackend hosting).
//
// Frames are opaque bytes at this layer; castanet/wire.hpp defines the
// message serialization on top.  Modeled transport latency is NOT accounted
// here — it stays a property of the message-level channel (the simulated
// per-message overhead of MessageChannel), so swapping the real transport
// never changes simulated time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace castanet::transport {

/// Result of one blocking receive attempt.
enum class RecvStatus {
  kFrame,    ///< a complete frame was written to `out`
  kClosed,   ///< peer closed (or died); no more frames will arrive
  kTimeout,  ///< `timeout_ms` elapsed with no complete frame
};

/// A reliable, ordered, bidirectional frame pipe between two endpoints.
/// One endpoint object per side; each side may have at most one sender and
/// one receiver thread at a time.
class FramePipe {
 public:
  virtual ~FramePipe() = default;
  FramePipe(const FramePipe&) = delete;
  FramePipe& operator=(const FramePipe&) = delete;

  /// Sends one frame; blocks until the peer (or the kernel buffer) accepted
  /// it.  Returns false when the pipe is closed — the frame is dropped.
  virtual bool send_frame(const void* data, std::size_t len) = 0;
  bool send_frame(const std::vector<std::uint8_t>& frame) {
    return send_frame(frame.data(), frame.size());
  }

  /// Receives the next frame into `out` (replaced, not appended).  Blocks up
  /// to `timeout_ms` milliseconds; negative means wait forever.
  virtual RecvStatus recv_frame(std::vector<std::uint8_t>& out,
                                int timeout_ms) = 0;

  /// Closes this endpoint: the peer's pending receives return kClosed once
  /// drained, subsequent sends on either side fail.
  virtual void close() = 0;

  virtual std::uint64_t frames_sent() const = 0;
  virtual std::uint64_t frames_received() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;

  /// OS-pollable handle (the socket fd), or -1 when this endpoint has none
  /// (in-process pipes).  Lets a dispatcher poll() many pipes at once.
  virtual int native_handle() const { return -1; }

 protected:
  FramePipe() = default;
};

/// Creates a connected in-process endpoint pair.  `capacity` bounds the
/// number of queued frames per direction (back-pressure: send blocks on a
/// full queue).
std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_inprocess_pipe(std::size_t capacity = 256);

/// Creates a connected AF_UNIX SOCK_STREAM endpoint pair (socketpair).
/// Either endpoint may be carried across fork() into a child process; close
/// the other endpoint in each process.  Throws IoError on failure.
std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_socket_pipe();

/// Wraps an already-connected stream socket fd (takes ownership).
std::unique_ptr<FramePipe> wrap_socket(int fd);

}  // namespace castanet::transport
