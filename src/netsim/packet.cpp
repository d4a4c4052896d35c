#include "src/netsim/packet.hpp"

#include <algorithm>
#include <sstream>

#include "src/core/error.hpp"

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

const atm::Cell& Packet::cell() const {
  if (!has_cell()) {
    throw LogicError("Packet::cell: packet carries no ATM cell");
  }
  return *cell_;
}

atm::Cell& Packet::mutable_cell() {
  if (!has_cell()) {
    throw LogicError("Packet::cell: packet carries no ATM cell");
  }
  return *cell_;
}

void Packet::set_field(const std::string& name, double v) {
  auto it = std::lower_bound(
      fields_.begin(), fields_.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != fields_.end() && it->first == name) {
    it->second = v;
  } else {
    fields_.insert(it, {name, v});
  }
}

double Packet::field(const std::string& name) const {
  auto it = find_field(fields_, name);
  if (it != fields_.end()) return it->second;
  throw LogicError("Packet::field: no field '" + name + "'");
}

bool Packet::has_field(const std::string& name) const {
  return find_field(fields_, name) != fields_.end();
}

std::string Packet::to_string() const {
  std::ostringstream os;
  os << "pkt#" << id_;
  if (cell_) os << " " << cell_->to_string();
  for (const auto& [k, v] : fields_) os << " " << k << "=" << v;
  return os.str();
}

}  // namespace castanet::netsim
