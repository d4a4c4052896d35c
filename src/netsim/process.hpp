// Process domain: models as communicating extended finite state machines.
//
// OPNET's process domain "specifies the behavior of processing nodes as
// communicating extended FSMs" (§2).  ProcessModel is the raw interrupt
// interface; FsmProcess adds the state/transition machinery with OPNET's
// forced (green) / unforced (red) state semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/rng.hpp"
#include "src/dsim/scheduler.hpp"
#include "src/netsim/packet.hpp"

namespace castanet::netsim {

class Simulation;
class Node;

enum class InterruptKind {
  kBegin,   ///< delivered once at simulation start
  kStream,  ///< packet arrival on an input stream
  kSelf,    ///< self-scheduled timer
  kEnd,     ///< delivered when the simulation finishes
};

struct Interrupt {
  InterruptKind kind = InterruptKind::kBegin;
  unsigned stream = 0;  ///< input stream index for kStream
  int code = 0;         ///< user code for kSelf
  Packet packet;        ///< valid for kStream
};

/// Base class of all process models.
class ProcessModel {
 public:
  virtual ~ProcessModel() = default;

  /// Central interrupt handler (OPNET's "invoke").
  virtual void handle_interrupt(const Interrupt& intr) = 0;

  const std::string& name() const { return name_; }
  Node& node() const { return *node_; }

 protected:
  // --- kernel services available to the model ---------------------------
  SimTime now() const;
  /// Sends `p` on output stream `out_stream` (after `delay`).
  void send(unsigned out_stream, Packet p, SimTime delay = SimTime::zero());
  /// Schedules a self interrupt with `code` after `delay`.
  void schedule_self(SimTime delay, int code);
  /// Per-process deterministic random stream.
  Rng& rng() { return rng_; }
  Simulation& simulation() const { return *sim_; }

  /// Creates a packet with a fresh id and the current timestamp.
  Packet make_packet();
  Packet make_packet(atm::Cell cell);

 private:
  friend class Simulation;
  friend class Node;
  Simulation* sim_ = nullptr;
  Node* node_ = nullptr;
  std::string name_;
  std::uint32_t process_id_ = 0;
  Rng rng_;
};

/// OPNET-style extended FSM process.
///
/// States are *forced* (executives run, transitions evaluate immediately) or
/// *unforced* (after the enter executive the process blocks until the next
/// interrupt).  On each interrupt the transitions out of the current state
/// are evaluated in registration order; the first satisfied guard is taken
/// (with its optional action), entering the target state.  A missing
/// satisfied transition leaves the FSM in place (OPNET's implicit self
/// transition).
class FsmProcess : public ProcessModel {
 public:
  void handle_interrupt(const Interrupt& intr) final;

  int current_state() const { return current_; }
  const std::string& state_name(int s) const;
  std::uint64_t transitions_taken() const { return transitions_taken_; }

 protected:
  using Guard = std::function<bool(const Interrupt&)>;
  using Exec = std::function<void(const Interrupt&)>;

  /// Registers a state; returns its id.  `enter` may be null.
  int add_state(std::string name, Exec enter, bool forced = false);
  /// Registers a transition evaluated in registration order.  A null guard
  /// is the default transition (always satisfied).
  void add_transition(int from, int to, Guard guard, Exec action = nullptr);
  void set_initial(int state);

 private:
  struct State {
    std::string name;
    Exec enter;
    bool forced;
  };
  struct Transition {
    int from;
    int to;
    Guard guard;
    Exec action;
  };

  void enter_state(int s, const Interrupt& intr);
  /// Evaluates transitions until resting in an unforced state.
  void run_machine(const Interrupt& intr);

  std::vector<State> states_;
  std::vector<Transition> transitions_;
  int current_ = -1;
  int initial_ = -1;
  bool started_ = false;
  std::uint64_t transitions_taken_ = 0;
};

}  // namespace castanet::netsim
