#include "src/netsim/packet.hpp"

#include <algorithm>
#include <sstream>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::netsim {

namespace {

using FieldVec = std::vector<std::pair<std::string, double>>;

FieldVec::const_iterator find_field(const FieldVec& fields,
                                    const std::string& name) {
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != fields.end() && it->first == name) return it;
  return fields.end();
}

}  // namespace

Packet::Packet(atm::Cell cell) { ensure_payload().cell = std::move(cell); }

Packet& Packet::operator=(const Packet& other) {
  if (this == &other) return *this;
  release_payload();
  copy_from(other);
  return *this;
}

Packet& Packet::operator=(Packet&& other) noexcept {
  if (this == &other) return *this;
  release_payload();
  id_ = other.id_;
  creation_time_ = other.creation_time_;
  size_bits_ = other.size_bits_;
  payload_ = other.payload_;
  pool_ = other.pool_;
  other.payload_ = nullptr;
  return *this;
}

void Packet::copy_from(const Packet& other) {
  id_ = other.id_;
  creation_time_ = other.creation_time_;
  size_bits_ = other.size_bits_;
  pool_ = other.pool_;
  if (other.payload_) {
    PacketPayload& p = ensure_payload();
    p.cell = other.payload_->cell;
    p.fields = other.payload_->fields;
  }
}

PacketPayload& Packet::ensure_payload() {
  if (!payload_) payload_ = pool_ ? pool_->acquire() : new PacketPayload;
  return *payload_;
}

void Packet::release_payload() noexcept {
  if (!payload_) return;
  if (pool_) {
    pool_->release(payload_);
  } else {
    delete payload_;
  }
  payload_ = nullptr;
}

const atm::Cell& Packet::cell() const {
  if (!has_cell()) {
    throw LogicError("Packet::cell: packet carries no ATM cell");
  }
  return *payload_->cell;
}

atm::Cell& Packet::mutable_cell() {
  if (!has_cell()) {
    throw LogicError("Packet::cell: packet carries no ATM cell");
  }
  return *payload_->cell;
}

void Packet::set_cell(atm::Cell c) { ensure_payload().cell = std::move(c); }

void Packet::set_field(const std::string& name, double v) {
  FieldVec& fields = ensure_payload().fields;
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != fields.end() && it->first == name) {
    it->second = v;
  } else {
    fields.insert(it, {name, v});
  }
}

double Packet::field(const std::string& name) const {
  if (payload_) {
    auto it = find_field(payload_->fields, name);
    if (it != payload_->fields.end()) return it->second;
  }
  throw LogicError("Packet::field: no field '" + name + "'");
}

bool Packet::has_field(const std::string& name) const {
  return payload_ && find_field(payload_->fields, name) !=
                         payload_->fields.end();
}

std::string Packet::to_string() const {
  std::ostringstream os;
  os << "pkt#" << id_;
  if (payload_) {
    if (payload_->cell) os << " " << payload_->cell->to_string();
    for (const auto& [k, v] : payload_->fields) os << " " << k << "=" << v;
  }
  return os.str();
}

// --- PacketPool --------------------------------------------------------------

PacketPayload* PacketPool::acquire() {
  if (!free_.empty()) {
    ++hits_;
    PacketPayload* p = free_.back();
    free_.pop_back();
    return p;
  }
  ++misses_;
  slab_.emplace_back();
  return &slab_.back();
}

void PacketPool::release(PacketPayload* payload) noexcept {
  payload->reset();
  free_.push_back(payload);
}

double PacketPool::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) /
                                static_cast<double>(total);
}

void PacketPool::publish_telemetry() const {
  if (!telemetry::enabled()) return;
  auto& hub = telemetry::Hub::instance();
  hub.publish_value("netsim.packet_pool.hit_rate", hit_rate());
  hub.publish_value("netsim.packet_pool.slab_payloads",
                    static_cast<double>(slab_.size()));
}

}  // namespace castanet::netsim
