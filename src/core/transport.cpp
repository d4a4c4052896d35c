#include "src/core/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/error.hpp"

namespace castanet::transport {

bool FramePipe::send_frame(const void* data, std::size_t len) {
  if (fd_ < 0 || len > kMaxFrameBytes) return false;
  std::uint8_t hdr[4];
  const std::uint32_t n = static_cast<std::uint32_t>(len);
  hdr[0] = static_cast<std::uint8_t>(n);
  hdr[1] = static_cast<std::uint8_t>(n >> 8);
  hdr[2] = static_cast<std::uint8_t>(n >> 16);
  hdr[3] = static_cast<std::uint8_t>(n >> 24);
  if (!write_all(hdr, sizeof hdr)) return false;
  return write_all(data, len);
}

RecvStatus FramePipe::recv_frame(std::vector<std::uint8_t>& out,
                                 int timeout_ms) {
  // SOCK_STREAM has no message boundaries, so frames are reassembled in
  // buf_.  Deadline-based: partial frames keep waiting within the original
  // budget.
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (buf_.size() >= 4) {
      const std::size_t flen = frame_length();
      if (flen > kMaxFrameBytes) {
        // A corrupt prefix: the stream cannot be resynchronized, so give up
        // on it instead of waiting for (and buffering) the claimed bytes.
        buf_.clear();
        close();
        return RecvStatus::kClosed;
      }
      if (buf_.size() >= 4 + flen) {
        out.assign(buf_.begin() + 4, buf_.begin() + 4 + flen);
        buf_.erase(buf_.begin(), buf_.begin() + 4 + flen);
        return RecvStatus::kFrame;
      }
    }
    if (fd_ < 0) return RecvStatus::kClosed;
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      wait_ms =
          static_cast<int>(std::max<std::int64_t>(0, timeout_ms - elapsed));
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr == 0) return RecvStatus::kTimeout;
    if (pr < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kClosed;
    }
    std::uint8_t chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got > 0) {
      buf_.insert(buf_.end(), chunk, chunk + got);
    } else if (got == 0) {
      return RecvStatus::kClosed;  // peer closed; partial frame is lost
    } else if (errno != EINTR && errno != EAGAIN) {
      return RecvStatus::kClosed;
    }
  }
}

void FramePipe::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

std::size_t FramePipe::frame_length() const {
  return static_cast<std::size_t>(buf_[0]) |
         (static_cast<std::size_t>(buf_[1]) << 8) |
         (static_cast<std::size_t>(buf_[2]) << 16) |
         (static_cast<std::size_t>(buf_[3]) << 24);
}

bool FramePipe::write_all(const void* data, std::size_t len) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: peer is gone
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::pair<std::unique_ptr<FramePipe>, std::unique_ptr<FramePipe>>
make_socket_pipe() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw IoError(std::string("socketpair(AF_UNIX) failed: ") +
                  std::strerror(errno));
  }
  return {wrap_socket(fds[0]), wrap_socket(fds[1])};
}

std::unique_ptr<FramePipe> wrap_socket(int fd) {
  require(fd >= 0, "wrap_socket: invalid fd");
  return std::make_unique<FramePipe>(fd);
}

Child fork_child(const std::function<int(FramePipe&)>& body) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw IoError(std::string("fork_child: socketpair failed: ") +
                  std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw IoError(std::string("fork_child: fork failed: ") +
                  std::strerror(err));
  }
  if (pid == 0) {
    // Child.  Plain close, never FramePipe::close(): the parent keeps using
    // its end, and shutdown() would sever it for both processes.
    ::close(fds[0]);
    int status = 1;
    try {
      FramePipe pipe(fds[1]);
      status = body(pipe);
    } catch (...) {
      status = 1;
    }
    std::_Exit(status);
  }
  ::close(fds[1]);
  return {pid, wrap_socket(fds[0])};
}

int wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

}  // namespace castanet::transport
