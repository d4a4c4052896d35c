#include "src/castanet/session.hpp"

#include <algorithm>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim {

VerificationSession::VerificationSession(netsim::Simulation& net,
                                         netsim::Node& node, unsigned streams,
                                         Params params)
    : net_(net),
      from_gateway_(make_transport(params.transport)),
      params_(params) {
  gateway_ = &node.add_process<GatewayProcess>("castanet_if", *from_gateway_,
                                               streams);
}

std::size_t VerificationSession::attach(DutBackend& backend) {
  require(!ran_, "VerificationSession: attach every backend before running");
  backends_.push_back(&backend);
  responses_drained_.push_back(0);
  return backends_.size() - 1;
}

void VerificationSession::run_until(SimTime limit) {
  require(!backends_.empty(),
          "VerificationSession: attach at least one backend before running");
  if (!ran_) {
    comparator_.attach(backends_.size());
    ran_ = true;
  }
  assign_tracks();
  run_loop(limit);
  finish_backends(limit);
  if (telemetry::enabled()) publish_metrics();
}

// ---------------------------------------------------------------------------
// Telemetry.  assign_tracks runs at the start of every run_until so a hub
// enabled (or reset) between runs gets fresh timeline rows; while the hub is
// disabled both functions are no-ops.

void VerificationSession::assign_tracks() {
  if (!telemetry::enabled()) return;
  auto& hub = telemetry::Hub::instance();
  for (DutBackend* b : backends_)
    b->set_telemetry_track(hub.track("backend:" + b->name()));
  net_.scheduler().set_telemetry_track(hub.track("net"));
}

void VerificationSession::publish_metrics() const {
  auto& hub = telemetry::Hub::instance();
  const Stats s = stats();
  hub.publish_count("session.net_events", s.net_events);
  hub.publish_count("session.messages_to_hdl", s.messages_to_hdl);
  hub.publish_count("session.responses", s.responses);
  hub.publish_count("session.divergences", comparator_.divergences().size());
  // Per-flow cell statistics accumulate on the network simulation; publish
  // them here because the co-verification loop never calls net_.finish()
  // (kEnd interrupts would perturb the measured run).
  if (!net_.flows().empty()) net_.flows().publish("flow", net_.now().seconds());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const DutBackend& b = *backends_[i];
    const BackendStats& bs = s.backends[i];
    const std::string prefix = "backend." + b.name() + ".";
    hub.publish_count(prefix + "windows", bs.windows);
    hub.publish_count(prefix + "causality_errors", bs.causality_errors);
    hub.publish_count(prefix + "lookahead_stalls", bs.lookahead_stalls);
    hub.publish_count(prefix + "responses", bs.responses);
    hub.publish_histogram(prefix + "lag_seconds", b.sync().lag_histogram());
    const double net_now = b.sync().network_time().seconds();
    for (const ConservativeSync::QueueDepth& q : b.sync().queue_depths()) {
      hub.publish_time_avg(
          prefix + "queue_depth." + std::to_string(q.type), *q.depth, net_now);
    }
    b.publish_metrics(prefix);
  }
}

// ---------------------------------------------------------------------------
// Response path.

void VerificationSession::schedule_response(TimedMessage m) {
  // A response computed at backend time t re-enters the network model no
  // earlier than t and never in the network's past.
  const SimTime when = std::max(m.timestamp, net_.now());
  net_.scheduler().schedule_at(when, [this, msg = std::move(m)] {
    if (on_response_) {
      on_response_(msg);
      return;
    }
    if (msg.cell) {
      netsim::Packet p;
      p.set_id(net_.next_packet_id());
      p.set_creation_time(net_.now());
      p.set_cell(*msg.cell);
      gateway_->emit_response(msg.type, std::move(p));
    }
  });
}

void VerificationSession::handle_response(std::size_t backend, TimedMessage m,
                                          bool in_run) {
  ++responses_drained_[backend];
  comparator_.note_response(backend, m);
  // New comparator divergences become instant events on the offending
  // backend's timeline row.  The count is tracked unconditionally so
  // enabling the hub mid-sequence does not replay old divergences.
  const std::size_t n_div = comparator_.divergences().size();
  if (n_div > divergences_seen_) {
    if (telemetry::enabled()) {
      telemetry::instant(
          "divergence", backends_[backend]->telemetry_track(),
          {{"stream", static_cast<double>(m.type)},
           {"ts_us", m.timestamp.seconds() * 1e6},
           {"count", static_cast<double>(n_div)}});
    }
    divergences_seen_ = n_div;
  }
  if (backend != 0) return;  // backends after the primary are pure checkers
  if (telemetry::enabled() && m.cell) {
    // Cells leaving the DUT: observed here, not in GatewayProcess, because
    // scenarios may install a response handler that bypasses emit_response
    // (the switch rig's monitors do).  Sim-time based, so deterministic.
    net_.flows().note_out({m.cell->header.vpi, m.cell->header.vci,
                           static_cast<std::uint32_t>(m.type)},
                          m.timestamp);
  }
  if (in_run) {
    schedule_response(std::move(m));
  } else if (on_response_) {
    // finish()-hook responses arrive after the horizon: the network loop is
    // over, so they cannot be scheduled as events.  The handler runs
    // directly; without one they feed the comparator only.
    on_response_(m);
  }
}

void VerificationSession::drain_backend(std::size_t backend, bool in_run) {
  resp_scratch_.clear();
  backends_[backend]->drain_responses(resp_scratch_);
  for (TimedMessage& m : resp_scratch_)
    handle_response(backend, std::move(m), in_run);
  resp_scratch_.clear();
}

void VerificationSession::finish_backends(SimTime limit) {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    backends_[i]->finish(limit);
    drain_backend(i, /*in_run=*/false);
  }
}

// ---------------------------------------------------------------------------
// The run loop.  Per network event, every backend sees the identical
// protocol input (gateway messages, then the originator's clock) and
// catches up to its own window; draining after the full catch-up is
// equivalent to draining per grant because net time does not advance inside
// a catch-up (scheduled re-entry times and their order are unchanged).

void VerificationSession::fan_out(SimTime clock, SimTime limit) {
  msg_scratch_.clear();
  while (auto m = from_gateway_->receive())
    msg_scratch_.push_back(std::move(*m));
  const TimedMessage update = make_time_update(clock);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    DutBackend& b = *backends_[i];
    for (const TimedMessage& m : msg_scratch_) b.push(m);
    b.push(update);
    b.catch_up(limit);
    drain_backend(i, /*in_run=*/true);
  }
}

void VerificationSession::run_loop(SimTime limit) {
  net_.start();
  while (true) {
    const SimTime next = net_.scheduler().next_event_time();
    if (next > limit) break;
    net_.scheduler().step();
    ++net_events_;
    fan_out(net_.now(), limit);
  }
  // Final catch-up: grant every backend the rest of the horizon.  Responses
  // scheduled back into the network may create new events, so iterate until
  // all sides are quiescent up to the limit.
  for (;;) {
    net_.scheduler().advance_to(
        std::min(limit, net_.scheduler().next_event_time()));
    fan_out(limit, limit);
    if (net_.scheduler().next_event_time() > limit) break;
    net_.run_until(limit);
  }
}

VerificationSession::Stats VerificationSession::stats() const {
  Stats s;
  s.net_events = net_events_;
  s.messages_to_hdl = from_gateway_->messages_sent();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const DutBackend& b = *backends_[i];
    BackendStats bs;
    bs.name = b.name();
    bs.windows = b.sync().windows_granted();
    bs.causality_errors = b.sync().causality_errors();
    bs.max_lag_seconds = b.sync().max_lag_seconds();
    bs.responses = responses_drained_[i];
    bs.lookahead_stalls = b.sync().lookahead_stalls();
    s.responses += bs.responses;
    s.backends.push_back(std::move(bs));
  }
  return s;
}

}  // namespace castanet::cosim
