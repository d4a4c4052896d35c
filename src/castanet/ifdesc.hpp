// Interface descriptions and generated interface models.
//
// The paper's conclusion sets this as the next step: "To support the
// development of interface modules for OPNET and VHDL simulators in the
// future proper interface description needs to be developed.  Based on this
// description, core interface models can be automatically generated.
// Building blocks will be taken from a library of generic protocol classes
// and conversion routines."
//
// This module implements exactly that: a small declarative interface
// description (parsable from text), validated, from which build() generates
// the complete co-simulation glue for a DUT — signals, lane drivers and
// monitors, bus masters — and wires it to a CosimEntity, so a new device is
// integrated by writing a description instead of hand-written conversion
// code.
//
// Text format (one declaration per line, '#' comments):
//
//   interface accounting
//   serial_in  cells  lane_bytes=1 delta=53
//   serial_out billed lane_bytes=1
//   register_bus mgmt addr_bits=8 data_bits=16
//   parallel_in ctrl width=16 delta=1
//
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/castanet/entity.hpp"
#include "src/castanet/mapping.hpp"
#include "src/hw/cell_port.hpp"

namespace castanet::cosim {

enum class PortKind {
  kSerialIn,     ///< cell lane into the DUT (driver generated)
  kSerialOut,    ///< cell lane out of the DUT (monitor generated)
  kRegisterBus,  ///< addr/data/cs/rw master (bus master generated)
  kParallelIn,   ///< word bus into the DUT with a valid strobe
  kParallelOut,  ///< word bus out of the DUT with a valid strobe
};

struct PortDesc {
  PortKind kind = PortKind::kSerialIn;
  std::string name;
  unsigned lane_bytes = 1;     ///< serial lanes: 1, 2 or 4
  unsigned width = 16;         ///< parallel buses / register data
  unsigned addr_bits = 8;      ///< register bus only
  unsigned delta_cycles = 53;  ///< δ_j for inbound message types
};

struct InterfaceDesc {
  std::string name;
  std::vector<PortDesc> ports;

  /// Checks names are unique and parameters in range; throws ConfigError.
  void validate() const;

  /// Parses the text format above; throws ConfigError with a line number on
  /// any malformed declaration.
  static InterfaceDesc parse(const std::string& text);
  /// Serializes back to the text format (round-trips with parse()).
  std::string to_text() const;
};

/// The signal bundles a generated interface exposes to the DUT: the DUT's
/// constructor takes these exactly as if they had been hand-declared.
struct GeneratedPort {
  PortDesc desc;
  // Serial lanes (in either direction), data bus 8 * lane_bytes bits:
  hw::CellPort lane;
  // Parallel buses:
  rtl::Bus data;
  rtl::Signal valid;
  // Register bus:
  rtl::Bus addr;
  rtl::Bus bus_data;
  rtl::Signal cs;
  rtl::Signal rw;
};

/// A generated co-simulation interface: all drivers/monitors/bus masters
/// for one DUT, with inbound ports registered on the entity under
/// consecutive message types and outbound ports reporting responses.
class GeneratedInterface {
 public:
  /// Builds the interface on `hdl`, clocked by `clk`, registering inbound
  /// ports with `entity` starting at message type `first_type` (in port
  /// declaration order; outbound ports respond with their own types, also
  /// in declaration order after the inbound ones).
  GeneratedInterface(rtl::Simulator& hdl, rtl::Signal clk,
                     CosimEntity& entity, const InterfaceDesc& desc,
                     MessageType first_type = 0);

  const GeneratedPort& port(const std::string& name) const;
  /// Message type assigned to a port (inbound: where to send stimuli;
  /// outbound: the type its responses carry).
  MessageType type_of(const std::string& name) const;

  /// Register-bus convenience (first register_bus port): queue operations.
  void bus_write(std::uint8_t addr, std::uint16_t value);
  void bus_read(std::uint8_t addr, std::function<void(std::uint16_t)> done);
  bool bus_idle() const;

  std::size_t ports() const { return ports_.size(); }

 private:
  struct Entry {
    GeneratedPort port;
    MessageType type;
    std::unique_ptr<hw::CellPortDriver> driver;
    std::unique_ptr<hw::CellPortMonitor> monitor;
    std::unique_ptr<BusMaster> bus_master;
  };

  std::vector<std::unique_ptr<Entry>> ports_;
  std::map<std::string, Entry*> by_name_;
  BusMaster* first_bus_ = nullptr;
};

}  // namespace castanet::cosim
