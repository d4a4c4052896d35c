#include "src/traffic/processes.hpp"

#include "src/core/error.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::traffic {

GeneratorProcess::GeneratorProcess(std::unique_ptr<CellSource> source,
                                   std::uint64_t max_cells)
    : source_(std::move(source)), max_cells_(max_cells) {
  require(source_ != nullptr, "GeneratorProcess: null source");
  const int idle = add_state(
      "idle", [this](const Interrupt&) { arm_next(); }, false);
  const int emit_state = add_state(
      "emit", [this](const Interrupt& i) { emit(i); }, true);
  set_initial(idle);
  add_transition(idle, emit_state, [](const Interrupt& i) {
    return i.kind == netsim::InterruptKind::kSelf;
  });
  add_transition(emit_state, idle, nullptr);
}

void GeneratorProcess::arm_next() {
  if (max_cells_ != 0 && sent_ >= max_cells_) return;
  if (!has_pending_) {
    pending_ = source_->next();
    has_pending_ = true;
  }
  const SimTime delay =
      pending_.time > now() ? pending_.time - now() : SimTime::zero();
  schedule_self(delay, 0);
}

void GeneratorProcess::emit(const Interrupt&) {
  if (!has_pending_) return;
  netsim::Packet p = make_packet(pending_.cell);
  has_pending_ = false;
  send(0, std::move(p));
  ++sent_;
}

SinkProcess::SinkProcess() {
  const int collect = add_state("collect", nullptr, false);
  const int record = add_state(
      "record",
      [this](const Interrupt& i) {
        ++received_;
        delay_.record((now() - i.packet.creation_time()).seconds());
        if (keep_log_ && i.packet.has_cell()) {
          log_.push_back({now(), i.packet.cell()});
        }
      },
      true);
  set_initial(collect);
  add_transition(collect, record, [](const Interrupt& i) {
    return i.kind == netsim::InterruptKind::kStream;
  });
  add_transition(record, collect, nullptr);
}

}  // namespace castanet::traffic
