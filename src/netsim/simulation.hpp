// Network and node domains of the OPNET-like simulator.
//
// The network domain is a topology of nodes connected by links; the node
// domain wires process models together with packet streams (§2).  A
// Simulation owns the discrete-event scheduler, all nodes/processes, the
// stream topology and the per-flow cell statistics.  Process models keep
// their own statistics (QueueProcess, SinkProcess).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dsim/scheduler.hpp"
#include "src/netsim/flow_stats.hpp"
#include "src/netsim/process.hpp"

namespace castanet::netsim {

/// Point-to-point link parameters.  rate_bps == 0 means infinite bandwidth
/// (no serialization delay) — used for intra-node streams.
struct LinkParams {
  SimTime propagation_delay = SimTime::zero();
  std::uint64_t rate_bps = 0;
};

/// A node groups processes (OPNET node domain).
class Node {
 public:
  const std::string& name() const { return name_; }

  /// Adds a process model to this node; the simulation takes ownership and
  /// returns a typed reference.
  template <typename T, typename... Args>
  T& add_process(const std::string& proc_name, Args&&... args);

 private:
  friend class Simulation;
  Simulation* sim_ = nullptr;
  std::string name_;
  std::vector<ProcessModel*> processes_;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- topology ---------------------------------------------------------
  Node& add_node(const std::string& name);
  Node& node(const std::string& name);

  /// Connects `src`'s output stream `out` to `dst`'s input stream `in`.
  /// Each (src, out) pair may have exactly one destination.
  void connect(ProcessModel& src, unsigned out, ProcessModel& dst,
               unsigned in, LinkParams link = {});

  ProcessModel* register_process(std::unique_ptr<ProcessModel> p, Node* node,
                                 const std::string& name);

  // --- execution --------------------------------------------------------
  /// Delivers kBegin to all processes; implicit in run().
  void start();
  /// Runs until `limit` (inclusive).  Returns events executed.
  std::uint64_t run_until(SimTime limit);
  /// Runs until the event list drains.
  std::uint64_t run();
  /// Delivers kEnd interrupts (statistics flush).
  void finish();

  SimTime now() const { return scheduler_.now(); }
  Scheduler& scheduler() { return scheduler_; }

  std::uint64_t packets_created() const { return packets_created_; }
  std::uint64_t next_packet_id() { return ++packets_created_; }

  /// Per-flow (VPI/VCI/stream) cell statistics; recording is gated on
  /// telemetry::enabled() and published into the Hub by finish().
  FlowRegistry& flows() { return flows_; }
  const FlowRegistry& flows() const { return flows_; }

  Rng& rng() { return rng_; }

 private:
  friend class ProcessModel;

  struct Connection {
    ProcessModel* dst = nullptr;
    unsigned in_stream = 0;
    LinkParams link;
    SimTime busy_until = SimTime::zero();  ///< transmitter serialization
  };

  void deliver(ProcessModel& dst, Interrupt intr);
  void send_packet(ProcessModel& src, unsigned out, Packet p, SimTime delay);

  Scheduler scheduler_;
  Rng rng_;
  bool started_ = false;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::string, Node*> nodes_by_name_;
  std::vector<std::unique_ptr<ProcessModel>> processes_;
  // key: (process_id << 16) | out_stream
  std::unordered_map<std::uint64_t, Connection> connections_;
  FlowRegistry flows_;
  std::uint64_t packets_created_ = 0;
};

template <typename T, typename... Args>
T& Node::add_process(const std::string& proc_name, Args&&... args) {
  auto owned = std::make_unique<T>(std::forward<Args>(args)...);
  T& ref = *owned;
  sim_->register_process(std::move(owned), this, name_ + "." + proc_name);
  return ref;
}

}  // namespace castanet::netsim
