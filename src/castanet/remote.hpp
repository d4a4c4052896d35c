// Hosting a DutBackend in another process.
//
// The paper's Fig. 2 runs the HDL simulator as a SEPARATE UNIX process the
// CASTANET interface talks to over IPC.  RemoteBackend restores that split
// for any backend: the session side holds a RemoteBackend proxy, a child
// process started by transport::fork_child runs serve_backend() around the
// real backend, and the two speak a small framed protocol over the
// socketpair fork_child connects them by.  E1 configuration R runs the full
// RTL switch this way.
//
// Whoever forks the host also reaps it (transport::wait_child) after
// shutdown(): a host that saw kShutdown exits 0; one whose serve_backend()
// returned false exits non-zero.
//
// The proxy's own ConservativeSync (the one every DutBackend owns) is a
// MIRROR of the host's: it is fed the identical push stream the hosted
// backend receives.  Conservative windows are a deterministic function of
// that stream, so proxy and host always agree on
// how far the backend may advance — the proxy can run the standard
// catch_up() loop against its mirror and ship only the resulting advance
// targets, one round-trip per granted window instead of one per message.
//
// Failure semantics: a dead host (closed pipe, crashed process) surfaces as
// ProtocolError from the next proxy call; the session farm maps that to a
// failed shard without disturbing sibling workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/core/transport.hpp"

namespace castanet::cosim {

/// Protocol opcodes (first byte of every frame).
enum class RemoteOp : std::uint8_t {
  kPush = 1,      ///< proxy -> host: one encoded TimedMessage follows
  kAdvance = 2,   ///< proxy -> host: advance to target (i64 ps)
  kFinish = 3,    ///< proxy -> host: run finish(at) (i64 ps)
  kShutdown = 4,  ///< proxy -> host: stop serving
  kResponse = 5,  ///< host -> proxy: one encoded response TimedMessage
  kDone = 6,      ///< host -> proxy: request complete; now() (i64 ps) follows
  kError = 7,     ///< host -> proxy: request failed; what() string follows
};

/// Session-side proxy for a backend hosted behind `pipe`.  Declare the same
/// inputs (type, δ) the hosted backend declares — the mirror sync must see
/// the protocol the host sees.
class RemoteBackend final : public DutBackend {
 public:
  RemoteBackend(std::string name, ConservativeSync::Params sync_params,
                std::unique_ptr<transport::FramePipe> pipe);
  ~RemoteBackend() override;

  /// Mirrors the hosted backend's declare_input/register_input calls.
  void declare_input(MessageType type, std::uint64_t delta_cycles);

  /// Sends kShutdown and closes the pipe (idempotent; also run by the
  /// destructor).  After this every protocol call throws.
  void shutdown();

  void push(const TimedMessage& m) override;
  void finish(SimTime at) override;

  std::uint64_t round_trips() const { return round_trips_; }

 protected:
  void advance_to(SimTime target) override;

 private:
  /// Reads host frames until kDone, queueing kResponse payloads as this
  /// backend's responses.  Throws ProtocolError on kError or a dead pipe.
  void wait_done(const char* what);

  std::unique_ptr<transport::FramePipe> pipe_;
  std::uint64_t round_trips_ = 0;
  bool down_ = false;
};

/// Hosts `backend` behind `pipe`: services proxy requests until kShutdown
/// arrives or the peer disappears.  Returns true on orderly shutdown, false
/// when the pipe closed unexpectedly.  Exceptions from the backend are
/// reported to the proxy as kError frames and terminate the loop.
bool serve_backend(DutBackend& backend, transport::FramePipe& pipe);

}  // namespace castanet::cosim
