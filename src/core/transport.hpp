// Byte-frame transport between co-simulation endpoints.
//
// The paper couples OPNET and VSS as separate UNIX processes exchanging
// time-stamped messages over IPC (§3.1).  A FramePipe is one end of such a
// link: a reliable, ordered, bidirectional pipe of length-prefixed binary
// frames over an AF_UNIX SOCK_STREAM socket.  The two ends may live in one
// process (the socket gateway transport's loopback) or in two: fork_child()
// starts a child process holding the other end, which is how the session
// farm forks its workers and how a DutBackend is hosted in its own process
// (castanet/remote.hpp).
//
// Frames are opaque bytes at this layer; castanet/wire.hpp defines the
// message serialization on top.  No transport moves simulated time, so
// swapping the real transport never changes a result.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace castanet::transport {

/// Largest frame a FramePipe sends or accepts (64 MiB).  The length prefix
/// comes from another process, so one corrupt header could otherwise make a
/// reader wait for, and buffer, up to 4 GiB.
constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/// Result of one blocking receive attempt.
enum class RecvStatus {
  kFrame,    ///< a complete frame was written to `out`
  kClosed,   ///< peer closed (or died); no more frames will arrive
  kTimeout,  ///< `timeout_ms` elapsed with no complete frame
};

/// One endpoint of a connected stream socket carrying length-prefixed
/// frames (u32 little-endian length, then the bytes).  Owns the fd.
class FramePipe {
 public:
  explicit FramePipe(int fd) : fd_(fd) {}
  ~FramePipe() { close(); }
  FramePipe(const FramePipe&) = delete;
  FramePipe& operator=(const FramePipe&) = delete;

  /// Sends one frame; blocks until the kernel buffer accepted it.  Returns
  /// false when the pipe is closed or `len` exceeds kMaxFrameBytes — the
  /// frame is dropped.
  bool send_frame(const void* data, std::size_t len);
  bool send_frame(const std::vector<std::uint8_t>& frame) {
    return send_frame(frame.data(), frame.size());
  }

  /// Receives the next frame into `out` (replaced, not appended).  Blocks up
  /// to `timeout_ms` milliseconds; negative means wait forever.  A length
  /// prefix above kMaxFrameBytes closes the pipe and returns kClosed.
  RecvStatus recv_frame(std::vector<std::uint8_t>& out, int timeout_ms);

  /// Shuts the socket down and closes it: the peer's receives return
  /// kClosed, subsequent sends on either side fail.  Never call this on an
  /// fd shared with another process that must keep using it (a forked
  /// child's copy of its parent's end): shutdown() severs the socket for
  /// every holder — raw-::close such copies instead.
  void close();

  /// The socket fd, so a dispatcher can poll() many pipes at once.
  int native_handle() const { return fd_; }

 private:
  /// Length prefix of the frame at the front of buf_ (needs 4 bytes).
  std::size_t frame_length() const;
  bool write_all(const void* data, std::size_t len);

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;  ///< stream reassembly buffer
};

/// Creates a connected AF_UNIX SOCK_STREAM endpoint pair (socketpair).
/// Throws IoError on failure.
std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_socket_pipe();

/// Wraps an already-connected stream socket fd (takes ownership).
std::unique_ptr<FramePipe> wrap_socket(int fd);

/// The parent's view of a child started by fork_child().
struct Child {
  pid_t pid = -1;
  std::unique_ptr<FramePipe> pipe;  ///< the parent's end
};

/// Forks a child connected to the caller by a fresh socketpair.  The child
/// raw-closes the parent's end, runs `body` on its own end and leaves
/// through std::_Exit with body's return value (1 if body throws), so it
/// never unwinds into the parent's code.  The parent gets the child's pid
/// and its own end; it must reap the child (wait_child).  Throws IoError if
/// socketpair() or fork() fails.  Fork only from a single-threaded process.
Child fork_child(const std::function<int(FramePipe&)>& body);

/// Blocks until child `pid` exits and returns its exit status (128 + the
/// signal number when a signal ended it, -1 if `pid` cannot be waited for).
int wait_child(pid_t pid);

}  // namespace castanet::transport
