// Packets — the abstract protocol data units of the network simulator.
//
// In OPNET, processes "communicate through the exchange of abstracted
// information described for example as C-structures" (§3.2).  A Packet
// optionally carries a full ATM cell (the unit the hardware consumes) plus
// named scalar fields for model-level metadata; communication is
// instantaneous and the complete information is available when the event
// fires — exactly the abstraction the CASTANET interface must lower to
// bit-level signals.
//
// A Packet is a plain value: the cell and the sorted field vector sit
// inline, so a cell packet (104 bytes) is copied and moved with no heap
// traffic, and netsim's delivery capture fits SmallFn's inline buffer.
// Only named fields allocate, in the field vector.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/dsim/time.hpp"

namespace castanet::netsim {

class Packet {
 public:
  Packet() = default;
  explicit Packet(atm::Cell cell) : cell_(std::move(cell)) {}

  /// Globally unique id assigned at creation (for tracing/compare).
  std::uint64_t id() const { return id_; }
  void set_id(std::uint64_t id) { id_ = id; }

  SimTime creation_time() const { return creation_time_; }
  void set_creation_time(SimTime t) { creation_time_ = t; }

  /// Size used for link serialization delay; defaults to one ATM cell.
  std::uint32_t size_bits() const { return size_bits_; }
  void set_size_bits(std::uint32_t bits) { size_bits_ = bits; }

  bool has_cell() const { return cell_.has_value(); }
  const atm::Cell& cell() const;
  atm::Cell& mutable_cell();
  void set_cell(atm::Cell c) { cell_ = std::move(c); }

  /// Named scalar fields (OPNET packet fields).  Reading an absent field
  /// throws LogicError.
  void set_field(const std::string& name, double v);
  double field(const std::string& name) const;
  bool has_field(const std::string& name) const;

  std::string to_string() const;

 private:
  std::uint64_t id_ = 0;
  SimTime creation_time_ = SimTime::zero();
  std::uint32_t size_bits_ = 8 * atm::kCellBytes;
  std::optional<atm::Cell> cell_;
  /// Kept sorted by name (the iteration order to_string() prints).
  std::vector<std::pair<std::string, double>> fields_;
};

}  // namespace castanet::netsim
