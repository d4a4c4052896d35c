// N-backend verification fabric — the generalization of Fig. 2 to the whole
// of Fig. 5: ONE testbench (the network simulation, its traffic models and
// its gateway) drives ANY number of attached device backends in lockstep —
// the algorithm reference model, the RTL DUT under the HDL kernel, the
// fabricated device on the test board — each behind its own conservative
// synchronization instance, with a session-level comparator cross-checking
// every backend's responses against the primary's.  A two-party Fig. 2 rig
// is the one-backend case: an RtlBackend attached to a session.
//
// Structure per run_until, all on the calling thread (deterministic):
//   * every network event's gateway output plus the originator's clock is
//     fanned out to every attached backend, so each backend's sync sees the
//     identical protocol input stream;
//   * each backend catches up to its own granted window — backends advance
//     at their own pace (δ_j differ per backend) but all lag network time;
//   * responses drain per backend into the SessionComparator; the PRIMARY
//     backend's responses additionally re-enter the network model (the
//     closed loop of Fig. 2), so secondary backends are pure checkers and
//     their attachment cannot perturb the network side.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/comparator.hpp"
#include "src/castanet/gateway.hpp"
#include "src/castanet/transport.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::cosim {

class VerificationSession {
 public:
  struct Params {
    /// Has no effect: backends take their clock periods from their own sync
    /// params.  Kept only so existing callers that set it still compile.
    SimTime clock_period = SimTime::from_ns(50);
    /// Which transport carries gateway -> session messages.  kInProcess is
    /// the plain queue (default); kSocket routes every message through the
    /// wire serializer and an AF_UNIX socketpair.  Neither moves simulated
    /// time, so results are byte-identical.
    TransportKind transport = TransportKind::kInProcess;
  };

  /// The gateway is created inside `node` with `streams` bidirectional
  /// streams; connect network models to it like to any process.
  VerificationSession(netsim::Simulation& net, netsim::Node& node,
                      unsigned streams, Params params);
  VerificationSession(const VerificationSession&) = delete;
  VerificationSession& operator=(const VerificationSession&) = delete;

  /// Attaches a backend (not owned; must outlive the session) and returns
  /// its index.  Attach every backend before the first run_until.  The
  /// first one attached (index 0) is the primary: its responses re-enter
  /// the network model and are the comparator's golden stream.
  std::size_t attach(DutBackend& backend);
  std::size_t backend_count() const { return backends_.size(); }
  DutBackend& backend(std::size_t i) { return *backends_.at(i); }

  GatewayProcess& gateway() { return *gateway_; }
  const GatewayProcess& gateway() const { return *gateway_; }
  const Params& params() const { return params_; }

  /// The gateway -> session transport (what the gateway's streams feed).
  MessageTransport& gateway_transport() { return *from_gateway_; }

  /// Handles a primary-backend response; default (if unset): cell responses
  /// re-emitted by the gateway on the stream matching the message type.
  /// During a run the handler executes inside a network event at a time >=
  /// both the response time stamp and the network's current time; for
  /// responses emitted by finish() hooks (after the horizon) it runs
  /// directly.  Secondary backends' responses go to the comparator only.
  using ResponseHandler = std::function<void(const TimedMessage&)>;
  void set_response_handler(ResponseHandler h) { on_response_ = std::move(h); }

  /// Runs the coupled simulation until network time `limit`, then invokes
  /// every backend's finish() hook and drains the final responses.  May be
  /// called repeatedly with growing limits.
  void run_until(SimTime limit);

  /// The session-level cross-backend checker.  Feed-complete after
  /// run_until; call comparator().finish() once, then inspect.
  SessionComparator& comparator() { return comparator_; }

  struct BackendStats {
    std::string name;
    std::uint64_t windows = 0;
    std::uint64_t causality_errors = 0;
    double max_lag_seconds = 0.0;
    std::uint64_t responses = 0;  ///< responses drained from the backend
    std::uint64_t lookahead_stalls = 0;
  };
  struct Stats {
    std::uint64_t net_events = 0;
    std::uint64_t messages_to_hdl = 0;  ///< gateway -> backends (fanned out)
    std::uint64_t responses = 0;        ///< sum over backends
    std::vector<BackendStats> backends;
  };
  Stats stats() const;

 private:
  void run_loop(SimTime limit);
  void finish_backends(SimTime limit);

  // Telemetry (no-ops while the hub is disabled).
  void assign_tracks();
  void publish_metrics() const;

  void schedule_response(TimedMessage m);
  void handle_response(std::size_t backend, TimedMessage m, bool in_run);
  void drain_backend(std::size_t backend, bool in_run);
  /// Pushes the gateway's pending messages and a clock update at `clock`
  /// into every backend, catches each up below `limit` and drains it.
  void fan_out(SimTime clock, SimTime limit);

  netsim::Simulation& net_;
  std::unique_ptr<MessageTransport> from_gateway_;
  GatewayProcess* gateway_ = nullptr;
  Params params_;
  std::vector<DutBackend*> backends_;
  SessionComparator comparator_;
  ResponseHandler on_response_;
  bool ran_ = false;
  std::uint64_t net_events_ = 0;
  std::vector<std::uint64_t> responses_drained_;
  std::size_t divergences_seen_ = 0;  ///< comparator count already traced
  std::vector<TimedMessage> msg_scratch_;
  std::vector<TimedMessage> resp_scratch_;
};

}  // namespace castanet::cosim
