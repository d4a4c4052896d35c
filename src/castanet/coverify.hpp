// Two-party co-verification orchestrator — Fig. 2 as one object.
//
// Since the N-backend refactor this is a thin shim over VerificationSession
// with a single RtlBackend attached: the session owns the OPNET-side gateway
// and the run loop (serial and pipelined), the backend owns the HDL-side
// co-simulation entity and its conservative-sync instance.  The public API,
// parameters, statistics, and both execution modes' observable behavior are
// unchanged from the pre-refactor orchestrator:
//
//   * serial (default): both simulators interleave on the calling thread —
//     fully deterministic, the mode determinism-sensitive tests rely on;
//   * pipelined: the RTL simulator runs on its own worker thread, fed by a
//     bounded SPSC channel of window grants — the paper's actual
//     two-process OPNET<->VSS structure.  The §3.1 conservative windows are
//     the only synchronization points; the worker coalesces queued grants,
//     so the HDL side catches up in larger batches while the network side
//     runs ahead.
//
//     Determinism caveat: bit-identity with serial mode holds for
//     feed-forward topologies (sources -> DUT -> sinks), where DUT
//     responses do not influence what is later sent TO the DUT.  Messages
//     into the DUT apply at their own time stamps, so the DUT input stream
//     — and therefore every DUT output — is unchanged.  Responses, however,
//     are drained on the network thread after the network has run ahead,
//     and their re-entry is clamped to the network's current time:
//     response-triggered network events can execute at later times than in
//     serial mode.  In a topology where those events feed back into
//     DUT-input generation, the DUT input stream itself can legally differ
//     from serial mode.  Use serial mode when a feedback rig must be
//     reproduced exactly.
//
// Rigs that want more than one device under the same testbench (RTL +
// reference model + board) should use VerificationSession directly — see
// session.hpp.
#pragma once

#include <cstdint>
#include <functional>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"

namespace castanet::cosim {

class CoVerification {
 public:
  struct Params {
    ConservativeSync::Params sync;
    /// Modeled IPC cost per message, charged to the channel statistics.
    SimTime ipc_overhead_per_message = SimTime::zero();
    /// Extra model delay for a DUT response to re-enter the network model.
    SimTime response_latency = SimTime::zero();
    /// Run the RTL simulator on a dedicated worker thread.  Off by default:
    /// serial mode keeps the exact interleaving determinism-sensitive tests
    /// expect.
    bool pipelined = false;
    /// Capacity of the bounded SPSC channels feeding the worker (window
    /// grants) and carrying DUT responses back.
    std::size_t channel_capacity = 256;
    /// Pipelined mode only: a pure-clock announcement (a grant carrying no
    /// messages) is shipped to the worker only once net time has advanced
    /// this many HDL clock periods past the previous grant.  Message-
    /// carrying grants are never elided and carry the current net time
    /// themselves, so this bounds only the catch-up granularity while the
    /// network is quiet — the worker coalesces grants into chunked
    /// catch-ups anyway, and shipping every small clock step is pure
    /// channel overhead.  1 restores an announcement per clock period.
    /// With adaptive_stride this is the controller's FLOOR.
    std::uint32_t clock_announce_stride = 100;
    /// Upper bound for the adaptive stride controller; 0 means 16x the
    /// floor.  Ignored when adaptive_stride is false.
    std::uint32_t max_clock_announce_stride = 0;
    /// Pipelined mode: adapt the announce stride to the worker — back off
    /// towards the max while the command channel congests or grants stall,
    /// decay back to the floor while the worker keeps up.
    bool adaptive_stride = true;
    /// Pipelined mode: flush the coalesced grant batch to the worker once
    /// this many gateway messages are pending (a stride boundary flushes
    /// regardless).  1 restores a push per message-carrying event.
    std::size_t fanout_batch_messages = 8;
  };

  /// The gateway is created inside `node` with `streams` bidirectional
  /// streams; connect network models to it like to any process.
  CoVerification(netsim::Simulation& net, rtl::Simulator& hdl,
                 netsim::Node& node, unsigned streams, Params params);

  GatewayProcess& gateway() { return session_.gateway(); }
  CosimEntity& entity() { return backend_.entity(); }
  /// Gateway -> HDL channel (transport-overhead accounting).
  MessageChannel& net_to_hdl() { return session_.gateway_channel(); }
  /// HDL -> net response channel (transport-overhead accounting).
  MessageChannel& hdl_to_net() { return backend_.response_channel(); }

  /// Handles a DUT response message; default (if unset): cell responses are
  /// re-emitted by the gateway on the output stream matching the message
  /// type.  The handler runs inside a network-simulation event at a time
  /// >= both the HDL time stamp and the network's current time.
  using ResponseHandler = std::function<void(const TimedMessage&)>;
  void set_response_handler(ResponseHandler h) {
    session_.set_response_handler(std::move(h));
  }

  /// Runs the coupled simulation until network time `limit`.  In pipelined
  /// mode the worker thread lives only inside this call: it is spawned on
  /// entry and joined before returning, so stats() and the simulators are
  /// always safe to inspect between runs.
  void run_until(SimTime limit) { session_.run_until(limit); }

  struct Stats {
    std::uint64_t net_events = 0;
    std::uint64_t messages_to_hdl = 0;
    std::uint64_t messages_to_net = 0;
    std::uint64_t windows = 0;
    double max_lag_seconds = 0.0;
    std::uint64_t causality_errors = 0;
    // Pipelined-mode counters (zero in serial mode).
    std::uint64_t window_grant_stalls = 0;   ///< sends blocked on a full channel
    std::uint64_t max_channel_occupancy = 0; ///< high-water mark of either channel
    std::uint64_t worker_batches = 0;        ///< coalesced grant batches executed
    std::uint32_t effective_stride = 0;      ///< stride at end of last run
    std::uint32_t max_effective_stride = 0;  ///< adaptive controller high-water
    std::uint64_t fanout_batches = 0;        ///< coalesced fan-out batches
    std::uint64_t fanout_messages = 0;       ///< messages inside them
  };
  Stats stats() const;

  /// The underlying N-backend session (e.g. to attach a second backend
  /// before the first run, or to read the cross-backend comparator).
  VerificationSession& session() { return session_; }

 private:
  // Declaration order matters: session_ is destroyed FIRST (it joins any
  // still-live worker threads, which reference backend_).
  RtlBackend backend_;
  VerificationSession session_;
};

}  // namespace castanet::cosim
