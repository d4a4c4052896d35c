#include "src/castanet/ifdesc.hpp"

#include <set>
#include <sstream>

#include "src/core/error.hpp"

namespace castanet::cosim {

namespace {

const char* kind_name(PortKind k) {
  switch (k) {
    case PortKind::kSerialIn: return "serial_in";
    case PortKind::kSerialOut: return "serial_out";
    case PortKind::kRegisterBus: return "register_bus";
    case PortKind::kParallelIn: return "parallel_in";
    case PortKind::kParallelOut: return "parallel_out";
  }
  return "?";
}

std::optional<PortKind> kind_from(const std::string& s) {
  if (s == "serial_in") return PortKind::kSerialIn;
  if (s == "serial_out") return PortKind::kSerialOut;
  if (s == "register_bus") return PortKind::kRegisterBus;
  if (s == "parallel_in") return PortKind::kParallelIn;
  if (s == "parallel_out") return PortKind::kParallelOut;
  return std::nullopt;
}

unsigned parse_value(const std::string& kv, std::size_t line_no) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos) {
    throw ConfigError("ifdesc line " + std::to_string(line_no) +
                      ": expected key=value, got '" + kv + "'");
  }
  try {
    return static_cast<unsigned>(std::stoul(kv.substr(eq + 1)));
  } catch (const std::exception&) {
    throw ConfigError("ifdesc line " + std::to_string(line_no) +
                      ": bad number in '" + kv + "'");
  }
}

}  // namespace

void InterfaceDesc::validate() const {
  if (name.empty()) throw ConfigError("ifdesc: interface has no name");
  std::set<std::string> names;
  for (const PortDesc& p : ports) {
    if (p.name.empty()) throw ConfigError("ifdesc: port with empty name");
    if (!names.insert(p.name).second) {
      throw ConfigError("ifdesc: duplicate port name '" + p.name + "'");
    }
    if ((p.kind == PortKind::kSerialIn || p.kind == PortKind::kSerialOut) &&
        p.lane_bytes != 1 && p.lane_bytes != 2 && p.lane_bytes != 4) {
      throw ConfigError("ifdesc: port '" + p.name +
                        "': lane_bytes must be 1, 2 or 4");
    }
    if (p.kind == PortKind::kParallelIn || p.kind == PortKind::kParallelOut) {
      if (p.width == 0 || p.width > 64) {
        throw ConfigError("ifdesc: port '" + p.name +
                          "': parallel width must be 1..64");
      }
    }
    if (p.kind == PortKind::kRegisterBus) {
      if (p.addr_bits == 0 || p.addr_bits > 16 || p.width == 0 ||
          p.width > 64) {
        throw ConfigError("ifdesc: port '" + p.name +
                          "': register bus needs addr_bits 1..16 and "
                          "data width 1..64");
      }
    }
    if ((p.kind == PortKind::kSerialIn || p.kind == PortKind::kParallelIn) &&
        p.delta_cycles == 0) {
      throw ConfigError("ifdesc: port '" + p.name +
                        "': inbound delta must be >= 1");
    }
  }
}

InterfaceDesc InterfaceDesc::parse(const std::string& text) {
  InterfaceDesc desc;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank
    if (word == "interface") {
      if (!(ls >> desc.name)) {
        throw ConfigError("ifdesc line " + std::to_string(line_no) +
                          ": interface needs a name");
      }
      continue;
    }
    const auto kind = kind_from(word);
    if (!kind) {
      throw ConfigError("ifdesc line " + std::to_string(line_no) +
                        ": unknown declaration '" + word + "'");
    }
    PortDesc p;
    p.kind = *kind;
    if (p.kind == PortKind::kParallelIn || p.kind == PortKind::kParallelOut) {
      p.delta_cycles = 1;
    }
    if (!(ls >> p.name)) {
      throw ConfigError("ifdesc line " + std::to_string(line_no) +
                        ": port needs a name");
    }
    std::string kv;
    while (ls >> kv) {
      if (kv.rfind("lane_bytes=", 0) == 0) {
        p.lane_bytes = parse_value(kv, line_no);
      } else if (kv.rfind("delta=", 0) == 0) {
        p.delta_cycles = parse_value(kv, line_no);
      } else if (kv.rfind("width=", 0) == 0 || kv.rfind("data_bits=", 0) == 0) {
        p.width = parse_value(kv, line_no);
      } else if (kv.rfind("addr_bits=", 0) == 0) {
        p.addr_bits = parse_value(kv, line_no);
      } else {
        throw ConfigError("ifdesc line " + std::to_string(line_no) +
                          ": unknown attribute '" + kv + "'");
      }
    }
    desc.ports.push_back(std::move(p));
  }
  desc.validate();
  return desc;
}

std::string InterfaceDesc::to_text() const {
  std::ostringstream os;
  os << "interface " << name << "\n";
  for (const PortDesc& p : ports) {
    os << kind_name(p.kind) << " " << p.name;
    switch (p.kind) {
      case PortKind::kSerialIn:
        os << " lane_bytes=" << p.lane_bytes << " delta=" << p.delta_cycles;
        break;
      case PortKind::kSerialOut:
        os << " lane_bytes=" << p.lane_bytes;
        break;
      case PortKind::kRegisterBus:
        os << " addr_bits=" << p.addr_bits << " data_bits=" << p.width;
        break;
      case PortKind::kParallelIn:
        os << " width=" << p.width << " delta=" << p.delta_cycles;
        break;
      case PortKind::kParallelOut:
        os << " width=" << p.width;
        break;
    }
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// GeneratedInterface
// ---------------------------------------------------------------------------

GeneratedInterface::GeneratedInterface(rtl::Simulator& hdl, rtl::Signal clk,
                                       CosimEntity& entity,
                                       const InterfaceDesc& desc,
                                       MessageType first_type) {
  desc.validate();
  MessageType next_type = first_type;
  for (const PortDesc& pd : desc.ports) {
    auto entry = std::make_unique<Entry>();
    entry->port.desc = pd;
    entry->type = next_type++;
    const std::string prefix = desc.name + "." + pd.name;
    Entry* e = entry.get();

    switch (pd.kind) {
      case PortKind::kSerialIn: {
        e->port.lane = hw::make_cell_port(hdl, prefix, pd.lane_bytes);
        e->driver = std::make_unique<hw::CellPortDriver>(
            hdl, prefix + ".drv", clk, e->port.lane);
        entity.register_input(e->type, pd.delta_cycles,
                              [e](const TimedMessage& m) {
                                e->driver->enqueue(*m.cell);
                              });
        break;
      }
      case PortKind::kSerialOut: {
        e->port.lane = hw::make_cell_port(hdl, prefix, pd.lane_bytes);
        e->monitor = std::make_unique<hw::CellPortMonitor>(
            hdl, prefix + ".mon", clk, e->port.lane);
        CosimEntity* ent = &entity;
        const MessageType t = e->type;
        e->monitor->set_callback([ent, t](const atm::Cell& c) {
          ent->send_cell_response(t, c);
        });
        break;
      }
      case PortKind::kRegisterBus: {
        e->port.addr = rtl::Bus(
            &hdl, hdl.create_signal(prefix + ".addr", pd.addr_bits,
                                    rtl::Logic::L0));
        e->port.bus_data = rtl::Bus(
            &hdl, hdl.create_signal(prefix + ".data", pd.width,
                                    rtl::Logic::Z));
        e->port.cs = rtl::Signal(
            &hdl, hdl.create_signal(prefix + ".cs", 1, rtl::Logic::L0));
        e->port.rw = rtl::Signal(
            &hdl, hdl.create_signal(prefix + ".rw", 1, rtl::Logic::L1));
        e->bus_master = std::make_unique<BusMaster>(
            hdl, prefix + ".master", clk, e->port.addr, e->port.bus_data,
            e->port.cs, e->port.rw);
        if (!first_bus_) first_bus_ = e->bus_master.get();
        break;
      }
      case PortKind::kParallelIn: {
        e->port.data = rtl::Bus(
            &hdl, hdl.create_signal(prefix + ".data", pd.width,
                                    rtl::Logic::L0));
        e->port.valid = rtl::Signal(
            &hdl, hdl.create_signal(prefix + ".valid", 1, rtl::Logic::L0));
        rtl::Bus data = e->port.data;
        rtl::Signal valid = e->port.valid;
        rtl::Simulator* sim = &hdl;
        entity.register_input(
            e->type, pd.delta_cycles,
            [sim, data, valid](const TimedMessage& m) {
              require(!m.words.empty(),
                      "generated parallel_in: word message expected");
              data.write_uint(m.words[0]);
              valid.write(rtl::Logic::L1);
              // Deassert the strobe after one clock-sized window: the DUT
              // samples on its next edge.
              sim->schedule_callback(SimTime::from_ns(50),
                                     [valid] { valid.write(rtl::Logic::L0); });
            });
        break;
      }
      case PortKind::kParallelOut: {
        e->port.data = rtl::Bus(
            &hdl, hdl.create_signal(prefix + ".data", pd.width,
                                    rtl::Logic::L0));
        e->port.valid = rtl::Signal(
            &hdl, hdl.create_signal(prefix + ".valid", 1, rtl::Logic::L0));
        CosimEntity* ent = &entity;
        const MessageType t = e->type;
        rtl::Bus data = e->port.data;
        rtl::Signal valid = e->port.valid;
        hdl.add_process(prefix + ".mon", {valid.id()}, [ent, t, data, valid] {
          if (valid.rose()) {
            ent->send_word_response(t, {data.read_uint()});
          }
        });
        break;
      }
    }
    by_name_[pd.name] = e;
    ports_.push_back(std::move(entry));
  }
}

const GeneratedPort& GeneratedInterface::port(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw LogicError("GeneratedInterface: no port '" + name + "'");
  }
  return it->second->port;
}

MessageType GeneratedInterface::type_of(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw LogicError("GeneratedInterface: no port '" + name + "'");
  }
  return it->second->type;
}

void GeneratedInterface::bus_write(std::uint8_t addr, std::uint16_t value) {
  require(first_bus_ != nullptr,
          "GeneratedInterface: no register_bus port declared");
  first_bus_->write(addr, value);
}

void GeneratedInterface::bus_read(std::uint8_t addr,
                                  std::function<void(std::uint16_t)> done) {
  require(first_bus_ != nullptr,
          "GeneratedInterface: no register_bus port declared");
  first_bus_->read(addr, std::move(done));
}

bool GeneratedInterface::bus_idle() const {
  require(first_bus_ != nullptr,
          "GeneratedInterface: no register_bus port declared");
  return first_bus_->idle();
}

}  // namespace castanet::cosim
