#include "src/castanet/backend.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "src/core/error.hpp"

namespace castanet::cosim {

void DutBackend::catch_up(SimTime limit) {
  // First window probe before any span: a catch-up that cannot advance at
  // all is a lookahead stall (the protocol granted nothing new), counted
  // but not traced — stalls are visible as gaps between grant spans.
  {
    const SimTime target = std::min(window() - SimTime::from_ps(1), limit);
    if (target <= now()) {
      sync_.note_lookahead_stall();
      return;
    }
  }
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("grant", telemetry_track());
    span->arg("from_us", now().seconds() * 1e6);
  }
  for (;;) {
    const SimTime w = window();
    const SimTime target = std::min(w - SimTime::from_ps(1), limit);
    if (target <= now()) break;
    advance_to(target);
    sync_.note_hdl_time(now());
  }
  if (span) {
    span->arg("to_us", now().seconds() * 1e6);
    span->arg("lag_us",
              std::max(0.0, (sync_.network_time() - now()).seconds() * 1e6));
  }
}

void DutBackend::respond(MessageType stream, SimTime ts, const atm::Cell& c) {
  responses_.push_back(make_cell_message(stream, ts, c));
}

void DutBackend::respond_words(MessageType stream, SimTime ts,
                               std::vector<std::uint64_t> words) {
  responses_.push_back(make_word_message(stream, ts, std::move(words)));
}

void DutBackend::drain_responses(std::vector<TimedMessage>& out) {
  out.insert(out.end(), std::make_move_iterator(responses_.begin()),
             std::make_move_iterator(responses_.end()));
  responses_.clear();
}

// ---------------------------------------------------------------------------
// RtlBackend

RtlBackend::RtlBackend(std::string name, rtl::Simulator& hdl,
                       ConservativeSync::Params sync_params)
    : DutBackend(std::move(name), sync_params), hdl_(hdl), entity_(*this) {}

SimTime RtlBackend::now() const { return hdl_.now(); }

void RtlBackend::set_telemetry_track(telemetry::TrackId track) {
  DutBackend::set_telemetry_track(track);
  hdl_.set_telemetry_track(track);
}

void RtlBackend::publish_metrics(const std::string& prefix) const {
  auto& hub = telemetry::Hub::instance();
  const rtl::KernelStats& k = hdl_.stats();
  const std::string p = prefix + "kernel.";
  hub.publish_count(p + "transactions", k.transactions);
  hub.publish_count(p + "writes_elided", k.writes_elided);
  hub.publish_count(p + "value_changes", k.value_changes);
  hub.publish_count(p + "process_activations", k.process_activations);
  hub.publish_count(p + "delta_cycles", k.delta_cycles);
  hub.publish_count(p + "time_points", k.time_points);
  hub.publish_count(p + "gated_skips", k.gated_skips);
  hub.publish_count(p + "callbacks", k.callbacks);
}

void RtlBackend::advance_to(SimTime target) {
  // Deliver everything with ts <= target (the window is exclusive; catch_up
  // passes target = window - 1ps): each apply runs inside the kernel at its
  // message's time stamp.
  auto messages = sync().take_deliverable(target + SimTime::from_ps(1));
  for (TimedMessage& m : messages) {
    auto it = entity_.apply_.find(m.type);
    require(it != entity_.apply_.end(),
            "RtlBackend: no apply fn for message type");
    const SimTime delay =
        m.timestamp > hdl_.now() ? m.timestamp - hdl_.now() : SimTime::zero();
    hdl_.schedule_callback(delay,
                           [fn = &it->second, msg = std::move(m)] {
                             (*fn)(msg);
                           });
  }
  hdl_.run_until(target);
}

void RtlBackend::finish(SimTime at) {
  if (finish_hook_) finish_hook_(*this, at);
}

// ---------------------------------------------------------------------------
// ReferenceBackend

ReferenceBackend::ReferenceBackend(std::string name,
                                   ConservativeSync::Params sync_params)
    : DutBackend(std::move(name), sync_params) {}

void ReferenceBackend::register_input(MessageType type,
                                      std::uint64_t delta_cycles,
                                      ApplyFn apply) {
  sync().declare_input(type, delta_cycles);
  apply_[type] = std::move(apply);
}

void ReferenceBackend::advance_to(SimTime target) {
  // Instantaneous δ: each deliverable message is one function call at its
  // own time stamp (take_deliverable returns them sorted by time).
  auto messages = sync().take_deliverable(target + SimTime::from_ps(1));
  for (TimedMessage& m : messages) {
    auto it = apply_.find(m.type);
    require(it != apply_.end(),
            "ReferenceBackend: no apply fn for message type");
    it->second(m);
    ++applied_;
  }
  now_ = target;
}

void ReferenceBackend::finish(SimTime at) {
  if (finish_hook_) finish_hook_(*this, at);
}

// ---------------------------------------------------------------------------
// BoardBackend

BoardBackend::BoardBackend(std::string name, board::HardwareTestBoard& board,
                           board::BehavioralDut& dut, Params p)
    : DutBackend(std::move(name), p.sync),
      board_(board),
      dut_(dut),
      stream_(board, p.stream),
      p_(p) {}

void BoardBackend::register_cell_input(MessageType type,
                                       std::uint64_t delta_cycles) {
  sync().declare_input(type, delta_cycles);
}

void BoardBackend::advance_to(SimTime target) {
  auto messages = sync().take_deliverable(target + SimTime::from_ps(1));
  for (TimedMessage& m : messages) {
    if (!m.cell) continue;  // the board cell stream carries cells only
    pending_.push_back({m.timestamp, *m.cell});
  }
  if (pending_.size() >= kCellsPerBatch) run_pending();
  now_ = target;
}

void BoardBackend::run_pending() {
  if (pending_.empty()) return;
  // Rebase the batch to its first cell: vector memories then hold only the
  // batch's span instead of growing with absolute simulated time.
  const SimTime origin = pending_.front().time;
  std::vector<traffic::CellArrival> rebased;
  rebased.reserve(pending_.size());
  for (const traffic::CellArrival& a : pending_)
    rebased.push_back({a.time - origin, a.cell});
  const BoardCellStream::Result r = stream_.run(dut_, rebased);
  if (p_.real_time_per_test_cycle.count() > 0 && r.test_cycles > 0) {
    // The physical board replays the batch in real time; the driving
    // process waits for it (the paper's SCSI request blocks).  This wait is
    // wall-clock only — simulated time stays defined by the sync protocol.
    std::this_thread::sleep_for(r.test_cycles * p_.real_time_per_test_cycle);
  }
  totals_.totals.cycles += r.totals.cycles;
  totals_.totals.sw_time += r.totals.sw_time;
  totals_.totals.hw_time += r.totals.hw_time;
  totals_.test_cycles += r.test_cycles;
  // The adapter's violation counter is cumulative across runs; mirror it
  // rather than summing per-batch snapshots.
  totals_.timing_violations = r.timing_violations;
  pending_.clear();
}

void BoardBackend::finish(SimTime at) {
  run_pending();
  if (finish_hook_) finish_hook_(*this, at);
  now_ = std::max(now_, at);
}

}  // namespace castanet::cosim
