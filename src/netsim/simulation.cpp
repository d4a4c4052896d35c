#include "src/netsim/simulation.hpp"

#include <algorithm>

#include "src/core/error.hpp"

namespace castanet::netsim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}
Simulation::~Simulation() = default;

Node& Simulation::add_node(const std::string& name) {
  require(!nodes_by_name_.contains(name),
          "Simulation::add_node: duplicate node '" + name + "'");
  auto node = std::make_unique<Node>();
  node->sim_ = this;
  node->name_ = name;
  Node& ref = *node;
  nodes_by_name_[name] = node.get();
  nodes_.push_back(std::move(node));
  return ref;
}

Node& Simulation::node(const std::string& name) {
  auto it = nodes_by_name_.find(name);
  if (it == nodes_by_name_.end()) {
    throw LogicError("Simulation::node: no node '" + name + "'");
  }
  return *it->second;
}

ProcessModel* Simulation::register_process(std::unique_ptr<ProcessModel> p,
                                           Node* node,
                                           const std::string& name) {
  require(!started_, "Simulation: cannot add processes after start()");
  p->sim_ = this;
  p->node_ = node;
  p->name_ = name;
  p->process_id_ = static_cast<std::uint32_t>(processes_.size() + 1);
  p->rng_ = rng_.fork();
  ProcessModel* raw = p.get();
  if (node) node->processes_.push_back(raw);
  processes_.push_back(std::move(p));
  return raw;
}

void Simulation::connect(ProcessModel& src, unsigned out, ProcessModel& dst,
                         unsigned in, LinkParams link) {
  require(src.sim_ == this && dst.sim_ == this,
          "Simulation::connect: process belongs to another simulation");
  require(out < 0x10000, "Simulation::connect: stream index too large");
  const std::uint64_t key =
      static_cast<std::uint64_t>(src.process_id_) << 16 | out;
  require(!connections_.contains(key),
          "Simulation::connect: output stream " + std::to_string(out) +
              " of '" + src.name() + "' already connected");
  connections_[key] = Connection{&dst, in, link, SimTime::zero()};
}

void Simulation::deliver(ProcessModel& dst, Interrupt intr) {
  dst.handle_interrupt(intr);
}

void Simulation::send_packet(ProcessModel& src, unsigned out, Packet p,
                             SimTime delay) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(src.process_id_) << 16 | out;
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    throw LogicError("send: output stream " + std::to_string(out) + " of '" +
                     src.name() + "' is not connected");
  }
  Connection& c = it->second;
  SimTime depart = now() + delay;
  if (c.link.rate_bps > 0) {
    // Serialize on the link: the transmitter is busy until the previous
    // packet finished; transmission takes size/rate.
    const SimTime start = std::max(depart, c.busy_until);
    const SimTime tx = SimTime::from_ps(static_cast<std::int64_t>(
        static_cast<double>(p.size_bits()) / static_cast<double>(c.link.rate_bps) *
        1e12));
    c.busy_until = start + tx;
    depart = c.busy_until;
  }
  const SimTime arrive = depart + c.link.propagation_delay;
  ProcessModel* dst = c.dst;
  const unsigned in_stream = c.in_stream;
  scheduler_.schedule_at(arrive,
                         [this, dst, in_stream, pkt = std::move(p)]() mutable {
                           Interrupt intr;
                           intr.kind = InterruptKind::kStream;
                           intr.stream = in_stream;
                           intr.packet = std::move(pkt);
                           deliver(*dst, std::move(intr));
                         });
}

void Simulation::start() {
  if (started_) return;
  started_ = true;
  for (auto& p : processes_) {
    Interrupt intr;
    intr.kind = InterruptKind::kBegin;
    deliver(*p, intr);
  }
}

std::uint64_t Simulation::run_until(SimTime limit) {
  start();
  return scheduler_.run_until(limit);
}

std::uint64_t Simulation::run() {
  start();
  return scheduler_.run();
}

void Simulation::finish() {
  for (auto& p : processes_) {
    Interrupt intr;
    intr.kind = InterruptKind::kEnd;
    deliver(*p, intr);
  }
  if (telemetry::enabled() && !flows_.empty()) {
    flows_.publish("flow", now().seconds());
  }
}

}  // namespace castanet::netsim
