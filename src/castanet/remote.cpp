#include "src/castanet/remote.hpp"

#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"

namespace castanet::cosim {

namespace {

/// How long the proxy waits for the host to answer one request before
/// declaring it dead.  A crashed host is detected much sooner (the kernel
/// closes its socket end); this bounds only a genuinely hung host.
constexpr int kReplyTimeoutMs = 60'000;

void send_op_time(transport::FramePipe& pipe, RemoteOp op, SimTime t,
                  const char* what) {
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(op));
  w.i64(t.ps());
  if (!pipe.send_frame(w.data())) {
    throw ProtocolError(std::string(what) + ": peer closed");
  }
}

}  // namespace

RemoteBackend::RemoteBackend(std::string name,
                             ConservativeSync::Params sync_params,
                             std::unique_ptr<transport::FramePipe> pipe)
    : DutBackend(std::move(name), sync_params), pipe_(std::move(pipe)) {
  require(pipe_ != nullptr, "RemoteBackend: need a pipe");
}

RemoteBackend::~RemoteBackend() {
  try {
    shutdown();
  } catch (...) {
    // Destructor: the host being gone already is fine.
  }
}

void RemoteBackend::declare_input(MessageType type,
                                  std::uint64_t delta_cycles) {
  sync().declare_input(type, delta_cycles);
}

void RemoteBackend::shutdown() {
  if (down_) return;
  down_ = true;
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(RemoteOp::kShutdown));
  pipe_->send_frame(w.data());  // best effort; the close below is definitive
  pipe_->close();
}

void RemoteBackend::push(const TimedMessage& m) {
  require(!down_, "RemoteBackend: push after shutdown");
  // The mirror sees the identical stream the host sees — same windows, same
  // causality checking, and the session's per-backend statistics stay local.
  DutBackend::push(m);
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(RemoteOp::kPush));
  wire::encode_message(w, m);
  if (!pipe_->send_frame(w.data())) {
    down_ = true;
    throw ProtocolError("RemoteBackend '" + name() + "': host closed (push)");
  }
}

void RemoteBackend::advance_to(SimTime target) {
  require(!down_, "RemoteBackend: advance after shutdown");
  // Mirror bookkeeping first (consume deliverables, advance local time) so
  // the window computation matches the host's after its catch-up.
  sync().take_deliverable(target + SimTime::from_ps(1));
  now_ = target;
  send_op_time(*pipe_, RemoteOp::kAdvance, target, "RemoteBackend advance");
  wait_done("advance");
}

void RemoteBackend::finish(SimTime at) {
  require(!down_, "RemoteBackend: finish after shutdown");
  send_op_time(*pipe_, RemoteOp::kFinish, at, "RemoteBackend finish");
  // wait_done() adopts the host's post-finish now() from the kDone frame —
  // no local bump to `at`, or the proxy would disagree with a backend whose
  // finish() leaves its clock where the last advance put it.
  wait_done("finish");
}

void RemoteBackend::wait_done(const char* what) {
  std::vector<std::uint8_t> frame;
  for (;;) {
    const transport::RecvStatus st = pipe_->recv_frame(frame, kReplyTimeoutMs);
    if (st != transport::RecvStatus::kFrame) {
      down_ = true;
      throw ProtocolError("RemoteBackend '" + name() + "': host " +
                          (st == transport::RecvStatus::kTimeout ? "hung"
                                                                 : "died") +
                          " during " + what);
    }
    wire::Reader r(frame);
    switch (static_cast<RemoteOp>(r.u8())) {
      case RemoteOp::kResponse:
        respond(wire::decode_message(r));
        break;
      case RemoteOp::kDone: {
        const SimTime host_now = SimTime::from_ps(r.i64());
        if (host_now > now_) now_ = host_now;
        ++round_trips_;
        return;
      }
      case RemoteOp::kError:
        down_ = true;
        throw ProtocolError("RemoteBackend '" + name() + "': " + r.str());
      default:
        down_ = true;
        throw ProtocolError("RemoteBackend '" + name() +
                            "': unexpected opcode from host");
    }
  }
}

// ---------------------------------------------------------------------------
// Host side.

bool serve_backend(DutBackend& backend, transport::FramePipe& pipe) {
  std::vector<std::uint8_t> frame;
  std::vector<TimedMessage> responses;
  const auto ship_responses_and_done = [&] {
    responses.clear();
    backend.drain_responses(responses);
    for (const TimedMessage& m : responses) {
      wire::Writer w;
      w.u8(static_cast<std::uint8_t>(RemoteOp::kResponse));
      wire::encode_message(w, m);
      pipe.send_frame(w.data());
    }
    wire::Writer done;
    done.u8(static_cast<std::uint8_t>(RemoteOp::kDone));
    done.i64(backend.now().ps());
    pipe.send_frame(done.data());
  };
  for (;;) {
    if (pipe.recv_frame(frame, -1) != transport::RecvStatus::kFrame) {
      return false;  // proxy vanished without a shutdown
    }
    try {
      wire::Reader r(frame);
      switch (static_cast<RemoteOp>(r.u8())) {
        case RemoteOp::kPush:
          backend.push(wire::decode_message(r));
          break;
        case RemoteOp::kAdvance:
          backend.catch_up(SimTime::from_ps(r.i64()));
          ship_responses_and_done();
          break;
        case RemoteOp::kFinish:
          backend.finish(SimTime::from_ps(r.i64()));
          ship_responses_and_done();
          break;
        case RemoteOp::kShutdown:
          return true;
        default:
          throw ProtocolError("serve_backend: unexpected opcode from proxy");
      }
    } catch (const std::exception& e) {
      wire::Writer w;
      w.u8(static_cast<std::uint8_t>(RemoteOp::kError));
      w.str(e.what());
      pipe.send_frame(w.data());
      return false;
    }
  }
}

}  // namespace castanet::cosim
