// N-backend verification fabric — the generalization of Fig. 2 to the whole
// of Fig. 5: ONE testbench (the network simulation, its traffic models and
// its gateway) drives ANY number of attached device backends in lockstep —
// the algorithm reference model, the RTL DUT under the HDL kernel, the
// fabricated device on the test board — each behind its own conservative
// synchronization instance, with a session-level comparator cross-checking
// every backend's responses against the primary's.
//
// Structure per run_until:
//   * every network event's gateway output plus the originator's clock is
//     fanned out to every attached backend (each backend's sync sees the
//     identical protocol input stream the two-party orchestrator would
//     produce);
//   * each backend catches up to its own granted window — backends advance
//     at their own pace (δ_j differ per backend) but all lag network time;
//   * responses drain per backend into the SessionComparator; the PRIMARY
//     backend's responses additionally re-enter the network model (the
//     closed loop of Fig. 2), so secondary backends are pure checkers and
//     their attachment cannot perturb the network side.
//
// Execution modes mirror CoVerification (which is now a two-party shim over
// this class):
//   * serial: everything interleaves on the calling thread, deterministic;
//   * pipelined: one worker thread + one SPSC channel pair PER BACKEND; the
//     network thread ships every window grant to all workers and drains all
//     response channels.  Workers never share state; the §3.1 windows are
//     the only synchronization points.  The determinism caveat of
//     coverify.hpp applies unchanged (feed-forward topologies are
//     bit-identical to serial mode).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
    /// Modeled IPC cost per message, charged to the gateway channel.
    SimTime ipc_overhead_per_message = SimTime::zero();
    /// Extra model delay for a primary-backend response to re-enter the
    /// network model.
    SimTime response_latency = SimTime::zero();
    /// Run every backend on a dedicated worker thread.
    bool pipelined = false;
    /// Capacity of each backend's bounded SPSC channel pair.
    std::size_t channel_capacity = 256;
    /// Pipelined mode: pure-clock grants are elided until net time advanced
    /// this many clock periods past the previous grant (see coverify.hpp).
    /// With adaptive_stride this is the FLOOR the controller decays to.
    std::uint32_t clock_announce_stride = 100;
    /// Upper bound for the adaptive stride controller; 0 means 16x the
    /// floor.  Ignored when adaptive_stride is false.
    std::uint32_t max_clock_announce_stride = 0;
    /// Pipelined mode: close the loop on the announce stride — back off
    /// (towards the max) while the workers' command channels congest or
    /// grants stall, decay back to the floor while the workers keep up.
    bool adaptive_stride = true;
    /// Pipelined mode: flush the coalesced grant batch to the workers once
    /// this many gateway messages are pending (a stride boundary flushes
    /// regardless).  1 restores a push per message-carrying event.
    std::size_t fanout_batch_messages = 8;
    /// Clock period used for the announce-stride arithmetic (the HDL clock
    /// in a two-party setup; backends keep their own periods in their own
    /// sync params).
    SimTime clock_period = SimTime::from_ns(50);
    /// Which transport carries gateway -> session messages.  kInProcess is
    /// the plain queue (default, zero overhead change); kSocket routes every
    /// message through the wire serializer and an AF_UNIX socketpair while
    /// accounting identical modeled latency, so results are byte-identical.
    TransportKind transport = TransportKind::kInProcess;
  };

  /// The gateway is created inside `node` with `streams` bidirectional
  /// streams; connect network models to it like to any process.
  VerificationSession(netsim::Simulation& net, netsim::Node& node,
                      unsigned streams, Params params);
  ~VerificationSession();
  VerificationSession(const VerificationSession&) = delete;
  VerificationSession& operator=(const VerificationSession&) = delete;

  /// Attaches a backend (not owned; must outlive the session) and returns
  /// its index.  Attach every backend before the first run_until; index 0
  /// is the primary unless set_primary overrides.
  std::size_t attach(DutBackend& backend);
  /// Selects which backend's responses re-enter the network model and act
  /// as the comparator's golden stream.
  void set_primary(std::size_t index);
  std::size_t primary() const { return primary_; }
  std::size_t backend_count() const { return backends_.size(); }
  DutBackend& backend(std::size_t i) { return *backends_.at(i); }

  GatewayProcess& gateway() { return *gateway_; }
  const GatewayProcess& gateway() const { return *gateway_; }
  const Params& params() const { return params_; }

  /// Opt-in elaboration hook, installed process-wide (e.g. by
  /// lint::install_elaboration_hooks): invoked once per session at the
  /// first run_until, after backends are attached and the comparator is
  /// wired but before any network event executes.  A throwing hook aborts
  /// the run before anything advanced.
  using ElaborationHook = std::function<void(VerificationSession&)>;
  static void set_elaboration_hook(ElaborationHook hook);
  /// The gateway -> session transport (transport-overhead accounting).
  MessageTransport& gateway_transport() { return *from_gateway_; }
  /// The gateway -> session transport as the in-process channel.  Only
  /// valid with Params::transport == kInProcess (throws otherwise); kept
  /// for two-party-shim callers that predate the transport seam.
  MessageChannel& gateway_channel();

  /// Handles a primary-backend response; default (if unset): cell responses
  /// re-emitted by the gateway on the stream matching the message type.
  /// During a run the handler executes inside a network event at a time >=
  /// both the response time stamp and the network's current time; for
  /// responses emitted by finish() hooks (after the horizon) it runs
  /// directly.  Secondary backends' responses go to the comparator only.
  using ResponseHandler = std::function<void(const TimedMessage&)>;
  void set_response_handler(ResponseHandler h) { on_response_ = std::move(h); }

  /// Runs the coupled simulation until network time `limit`, then invokes
  /// every backend's finish() hook and drains the final responses.  In
  /// pipelined mode the workers live only inside this call.
  void run_until(SimTime limit);

  /// The session-level cross-backend checker.  Feed-complete after
  /// run_until; call comparator().finish() once, then inspect.
  SessionComparator& comparator() { return comparator_; }

  struct BackendStats {
    std::string name;
    std::uint64_t windows = 0;
    std::uint64_t causality_errors = 0;
    double max_lag_seconds = 0.0;
    std::uint64_t responses = 0;       ///< responses drained from the backend
    std::uint64_t worker_batches = 0;  ///< pipelined mode only
    std::uint64_t lookahead_stalls = 0;
    double mean_lag_seconds = 0.0;     ///< mean of the sync lag distribution
    std::uint64_t send_blocks = 0;     ///< SPSC back-pressure (pipelined)
    std::uint64_t nudge_wakeups = 0;   ///< SPSC nudges (pipelined)
  };
  struct Stats {
    std::uint64_t net_events = 0;
    std::uint64_t messages_to_hdl = 0;  ///< gateway -> backends (fanned out)
    std::uint64_t responses = 0;        ///< sum over backends
    std::uint64_t window_grant_stalls = 0;
    std::uint64_t max_channel_occupancy = 0;
    std::uint32_t effective_stride = 0;      ///< stride at end of last run
    std::uint32_t max_effective_stride = 0;  ///< controller high-water mark
    std::uint64_t fanout_batches = 0;        ///< coalesced batches flushed
    std::uint64_t fanout_messages = 0;       ///< messages inside them
    std::vector<BackendStats> backends;
  };
  Stats stats() const;

 private:
  /// One unit of work fanned out to every backend worker: messages to push
  /// into the conservative protocol, the originator's clock, a horizon.
  struct WorkerCmd {
    std::vector<TimedMessage> msgs;
    SimTime net_now;
    SimTime limit;
  };

  /// Per-backend pipelined plumbing.  While the worker lives, the backend
  /// belongs to the worker thread; the SPSC channels are the only shared
  /// state.  Counter discipline matches coverify.cpp's single-worker
  /// implementation (lock-free steady state, completion-edge wakeups on the
  /// session-wide done_mu_/done_cv_).
  struct Worker {
    DutBackend* backend = nullptr;
    std::unique_ptr<SpscChannel<WorkerCmd>> cmd;
    std::unique_ptr<SpscChannel<TimedMessage>> resp;
    std::thread thread;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<bool> dead{false};
    bool exited = false;             // guarded by done_mu_
    std::exception_ptr error;        // guarded by done_mu_
    std::uint64_t max_occupancy = 0; // updated at shutdown
    /// Timeline row for worker-batch spans; assigned before the thread
    /// starts, read-only afterwards.
    telemetry::TrackId track = telemetry::kMainTrack;
  };

  void run_until_serial(SimTime limit);
  void run_until_pipelined(SimTime limit);
  void finish_backends(SimTime limit);

  // Telemetry (no-ops while the hub is disabled).
  void assign_tracks();
  void publish_metrics() const;

  // Shared response path.
  void schedule_response(TimedMessage m);
  void handle_response(std::size_t backend, TimedMessage m, bool in_run);
  void drain_backend(std::size_t backend, bool in_run);

  // Pipelined mode (session thread side).
  void start_workers();
  /// Fans the coalesced grant batch out to every worker (one bulk push per
  /// channel) and clears it.
  void send_commands(std::vector<WorkerCmd>& cmds);
  /// One adaptive-stride controller observation, taken at each batch flush.
  void update_stride(std::uint64_t stalls_before);
  void drain_worker_responses();
  void flush_workers();
  void shutdown_workers();
  bool any_worker_dead() const;

  // Pipelined mode (worker thread side).
  void worker_main(Worker& w);
  bool worker_catch_up(Worker& w, SimTime limit);

  netsim::Simulation& net_;
  std::unique_ptr<MessageTransport> from_gateway_;
  GatewayProcess* gateway_ = nullptr;
  Params params_;
  std::vector<DutBackend*> backends_;
  std::size_t primary_ = 0;
  SessionComparator comparator_;
  ResponseHandler on_response_;
  bool ran_ = false;
  std::uint64_t net_events_ = 0;
  std::vector<std::uint64_t> responses_drained_;
  std::vector<std::uint64_t> worker_batches_total_;
  std::vector<std::uint64_t> send_blocks_total_;
  std::vector<std::uint64_t> nudges_total_;
  std::size_t divergences_seen_ = 0;  ///< comparator count already traced

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint64_t window_grant_stalls_ = 0;    // session thread only
  std::uint64_t max_channel_occupancy_ = 0;  // updated at shutdown
  // Adaptive stride controller state (session thread only).
  std::uint32_t effective_stride_ = 0;
  std::uint32_t max_effective_stride_ = 0;
  std::uint32_t calm_streak_ = 0;
  // Fan-out batching state (session thread only).
  std::vector<WorkerCmd> pending_cmds_;
  std::size_t pending_msgs_ = 0;
  std::uint64_t fanout_batches_ = 0;
  std::uint64_t fanout_messages_ = 0;
  /// Hub-owned fan-out batch-size timing and effective-stride gauge, cached
  /// while tracing (the handles live until Hub::reset(); re-fetched by
  /// assign_tracks each run).
  telemetry::Timing* fanout_timing_ = nullptr;
  telemetry::Gauge* stride_gauge_ = nullptr;
  /// Wall-clock nanoseconds spent in SessionComparator::note_response —
  /// the distribution that proves the enqueue-time hashing amortization.
  telemetry::Timing* compare_timing_ = nullptr;
  std::vector<TimedMessage> msg_scratch_;    // session thread only
  std::vector<TimedMessage> resp_scratch_;   // session thread only
};

}  // namespace castanet::cosim
