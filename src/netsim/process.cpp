#include "src/netsim/process.hpp"

#include "src/core/error.hpp"
#include "src/netsim/simulation.hpp"

namespace castanet::netsim {

SimTime ProcessModel::now() const { return sim_->now(); }

void ProcessModel::send(unsigned out_stream, Packet p, SimTime delay) {
  sim_->send_packet(*this, out_stream, std::move(p), delay);
}

void ProcessModel::schedule_self(SimTime delay, int code) {
  sim_->scheduler().schedule_in(delay, [this, code] {
    Interrupt intr;
    intr.kind = InterruptKind::kSelf;
    intr.code = code;
    handle_interrupt(intr);
  });
}

Packet ProcessModel::make_packet() {
  Packet p;
  p.set_id(sim_->next_packet_id());
  p.set_creation_time(now());
  return p;
}

Packet ProcessModel::make_packet(atm::Cell cell) {
  Packet p = make_packet();
  p.set_cell(std::move(cell));
  return p;
}

// ---------------------------------------------------------------------------
// FsmProcess
// ---------------------------------------------------------------------------

int FsmProcess::add_state(std::string name, Exec enter, bool forced) {
  states_.push_back({std::move(name), std::move(enter), forced});
  return static_cast<int>(states_.size() - 1);
}

void FsmProcess::add_transition(int from, int to, Guard guard, Exec action) {
  require(from >= 0 && static_cast<std::size_t>(from) < states_.size(),
          "FsmProcess::add_transition: bad 'from' state");
  require(to >= 0 && static_cast<std::size_t>(to) < states_.size(),
          "FsmProcess::add_transition: bad 'to' state");
  transitions_.push_back({from, to, std::move(guard), std::move(action)});
}

void FsmProcess::set_initial(int state) {
  require(state >= 0 && static_cast<std::size_t>(state) < states_.size(),
          "FsmProcess::set_initial: bad state");
  initial_ = state;
}

const std::string& FsmProcess::state_name(int s) const {
  require(s >= 0 && static_cast<std::size_t>(s) < states_.size(),
          "FsmProcess::state_name: bad state");
  return states_[static_cast<std::size_t>(s)].name;
}

void FsmProcess::enter_state(int s, const Interrupt& intr) {
  current_ = s;
  const State& st = states_[static_cast<std::size_t>(s)];
  if (st.enter) st.enter(intr);
}

void FsmProcess::run_machine(const Interrupt& intr) {
  // Evaluate transitions; keep going while we land in forced states.
  for (;;) {
    bool moved = false;
    for (const Transition& t : transitions_) {
      if (t.from != current_) continue;
      if (t.guard && !t.guard(intr)) continue;
      if (t.action) t.action(intr);
      ++transitions_taken_;
      enter_state(t.to, intr);
      moved = true;
      break;
    }
    if (!moved) return;  // implicit self transition: stay and wait
    if (!states_[static_cast<std::size_t>(current_)].forced) return;
  }
}

void FsmProcess::handle_interrupt(const Interrupt& intr) {
  if (!started_) {
    require(initial_ >= 0, "FsmProcess: set_initial() was never called");
    started_ = true;
    enter_state(initial_, intr);
    if (states_[static_cast<std::size_t>(current_)].forced) {
      run_machine(intr);
    }
    return;
  }
  run_machine(intr);
}

}  // namespace castanet::netsim
