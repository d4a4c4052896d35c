#include "src/castanet/mapping.hpp"

namespace castanet::cosim {

// --- BusMaster ---------------------------------------------------------------

BusMaster::BusMaster(rtl::Simulator& sim, std::string name, rtl::Signal clk,
                     rtl::Bus addr, rtl::Bus data, rtl::Signal cs,
                     rtl::Signal rw)
    : Module(sim, std::move(name)), clk_(clk), addr_(addr), data_(data),
      cs_(cs), rw_(rw) {
  // No initialization writes: cs/rw/addr take their creation-time initial
  // values until the first clock; writing here would register a second
  // driver that resolves against the bus-master process forever.
  bind_port(clk_, rtl::PortDir::kIn, "clk");
  bind_port(addr_, rtl::PortDir::kOut, addr_.width(), "addr");
  bind_port(data_, rtl::PortDir::kInOut, data_.width(), "data");
  bind_port(cs_, rtl::PortDir::kOut, "cs");
  bind_port(rw_, rtl::PortDir::kOut, "rw");
  clocked("bus_master", clk_, [this] { on_clk(); });
}

void BusMaster::write(std::uint8_t addr, std::uint16_t value) {
  ops_.push_back(Op{false, addr, value, nullptr});
}

void BusMaster::read(std::uint8_t addr,
                     std::function<void(std::uint16_t)> done) {
  ops_.push_back(Op{true, addr, 0, std::move(done)});
}

void BusMaster::on_clk() {
  if (ops_.empty()) {
    cs_.write(rtl::Logic::L0);
    data_.release();
    return;
  }
  Op& op = ops_.front();
  if (op.is_read) {
    // phase 0: assert addr/cs/rw=read, bus released by master.
    // phase 1: slave decodes (its outputs appear after its clock edge).
    // phase 2: sample the slave-driven bus, deassert cs.
    // phase 3: bus turnaround (slave releases), op completes.
    switch (phase_) {
      case 0:
        addr_.write_uint(op.addr);
        rw_.write(rtl::Logic::L1);
        cs_.write(rtl::Logic::L1);
        data_.release();
        ++phase_;
        break;
      case 1:
        ++phase_;
        break;
      case 2: {
        const auto& v = data_.read();
        const std::uint16_t value =
            v.is_defined() ? static_cast<std::uint16_t>(v.to_uint()) : 0xFFFF;
        cs_.write(rtl::Logic::L0);
        ++phase_;
        if (op.done) op.done(value);
        break;
      }
      default:
        ++transactions_;
        ops_.pop_front();
        phase_ = 0;
        break;
    }
    return;
  }
  // Write: phase 0 drives everything; the slave samples at its next edge;
  // phase 1 deasserts and releases.
  switch (phase_) {
    case 0:
      addr_.write_uint(op.addr);
      data_.write_uint(op.value);
      rw_.write(rtl::Logic::L0);
      cs_.write(rtl::Logic::L1);
      ++phase_;
      break;
    case 1:
      // Hold for the slave's sampling edge, then release.
      cs_.write(rtl::Logic::L0);
      rw_.write(rtl::Logic::L1);
      data_.release();
      ++transactions_;
      ops_.pop_front();
      phase_ = 0;
      break;
  }
}

}  // namespace castanet::cosim
