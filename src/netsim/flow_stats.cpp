#include "src/netsim/flow_stats.hpp"

#include <cstdio>

namespace castanet::netsim {

std::string FlowKey::to_string() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%u/%u@%u", static_cast<unsigned>(vpi),
                static_cast<unsigned>(vci), static_cast<unsigned>(stream));
  return buf;
}

void FlowRegistry::alias(const FlowKey& out, const FlowKey& in) {
  aliases_[out] = in;
}

FlowKey FlowRegistry::resolve(const FlowKey& key) const {
  const auto it = aliases_.find(key);
  return it != aliases_.end() ? it->second : key;
}

void FlowRegistry::note_in_slow(const FlowKey& key, SimTime now) {
  FlowStats& f = flows_[key];
  ++f.cells_in;
  f.pending.push_back(now);
  f.in_flight.set(now.seconds(),
                  static_cast<double>(f.pending.size()));
}

void FlowRegistry::note_out_slow(const FlowKey& key, SimTime now) {
  FlowStats& f = flows_[resolve(key)];
  ++f.cells_out;
  if (!f.pending.empty()) {
    // FIFO pairing: ATM preserves cell order within a VC, so the oldest
    // pending entry is this cell's entry stamp.
    const SimTime entered = f.pending.front();
    f.pending.pop_front();
    f.latency.record((now - entered).seconds());
    f.in_flight.set(now.seconds(), static_cast<double>(f.pending.size()));
  }
}

const FlowStats* FlowRegistry::find(const FlowKey& key) const {
  const auto it = flows_.find(key);
  return it != flows_.end() ? &it->second : nullptr;
}

void FlowRegistry::publish(const std::string& prefix,
                           double now_seconds) const {
  telemetry::Hub& hub = telemetry::Hub::instance();
  for (const auto& [key, f] : flows_) {
    const std::string base = prefix + "." + key.to_string();
    hub.publish_count(base + ".cells_in", f.cells_in);
    hub.publish_count(base + ".cells_out", f.cells_out);
    hub.publish_histogram(base + ".latency_seconds", f.latency);
    hub.publish_time_avg(base + ".in_flight", f.in_flight, now_seconds);
  }
}

}  // namespace castanet::netsim
