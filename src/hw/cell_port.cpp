#include "src/hw/cell_port.hpp"

#include "src/core/error.hpp"

namespace castanet::hw {

namespace {

/// Octets per lane word of `data`: 1, 2 or 4.
std::size_t lane_bytes_of(const rtl::Bus& data) {
  const std::size_t w = data.width();
  require(w == 8 || w == 16 || w == 32,
          "CellPort: data bus must be 8, 16 or 32 bits wide");
  return w / 8;
}

}  // namespace

CellPort make_cell_port(rtl::Simulator& sim, const std::string& prefix,
                        std::size_t lane_bytes) {
  require(lane_bytes == 1 || lane_bytes == 2 || lane_bytes == 4,
          "make_cell_port: lane_bytes must be 1, 2 or 4");
  // Initial values are set at creation: adding initialization *writes* from
  // a constructor would register a second driver on the net and resolve
  // against the real driving process forever (X).
  CellPort p;
  p.data = rtl::Bus(&sim, sim.create_signal(prefix + ".data", 8 * lane_bytes,
                                            rtl::Logic::L0));
  p.sync = rtl::Signal(&sim, sim.create_signal(prefix + ".sync", 1,
                                               rtl::Logic::L0));
  p.valid = rtl::Signal(&sim, sim.create_signal(prefix + ".valid", 1,
                                                rtl::Logic::L0));
  return p;
}

// --- CellPortDriver ----------------------------------------------------------

CellPortDriver::CellPortDriver(rtl::Simulator& sim, std::string name,
                               rtl::Signal clk, CellPort port)
    : Module(sim, std::move(name)), clk_(clk), port_(port),
      lane_bytes_(lane_bytes_of(port_.data)),
      clocks_per_cell_((atm::kCellBytes + lane_bytes_ - 1) / lane_bytes_) {
  bind_port(clk_, rtl::PortDir::kIn, "clk");
  bind_port(port_.data, rtl::PortDir::kOut, 8 * lane_bytes_, "data");
  bind_port(port_.sync, rtl::PortDir::kOut, "sync");
  bind_port(port_.valid, rtl::PortDir::kOut, "valid");
  pid_ = clocked("drive", clk_, [this] { on_clk(); });
}

void CellPortDriver::enqueue(const atm::Cell& c) {
  enqueue_bytes(c.to_bytes());
}

void CellPortDriver::enqueue_bytes(
    const std::array<std::uint8_t, atm::kCellBytes>& bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Pad to whole lane words so the next cell starts word-aligned.
  buffer_.resize(buffer_.size() + clocks_per_cell_ * lane_bytes_ -
                 atm::kCellBytes);
  // The queue lives outside the signal world, so no wake signal can re-arm
  // the driver after it gates on an empty buffer — re-arm it explicitly.
  sim().wake_process(pid_);
}

void CellPortDriver::on_clk() {
  if (buffer_.empty()) {
    port_.valid.write(rtl::Logic::L0);
    port_.sync.write(rtl::Logic::L0);
    phase_ = 0;
    gate();  // nothing queued: sleep until enqueue_bytes() wakes us
    return;
  }
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < lane_bytes_; ++i) {
    word |= static_cast<std::uint64_t>(buffer_.front()) << (8 * i);
    buffer_.pop_front();
  }
  port_.data.write_uint(word);
  port_.valid.write(rtl::Logic::L1);
  port_.sync.write(phase_ == 0 ? rtl::Logic::L1 : rtl::Logic::L0);
  if (++phase_ == clocks_per_cell_) {
    phase_ = 0;
    ++cells_driven_;
  }
}

// --- CellPortMonitor ---------------------------------------------------------

CellPortMonitor::CellPortMonitor(rtl::Simulator& sim, std::string name,
                                 rtl::Signal clk, CellPort port)
    : Module(sim, std::move(name)), clk_(clk), port_(port),
      lane_bytes_(lane_bytes_of(port_.data)) {
  bind_port(clk_, rtl::PortDir::kIn, "clk");
  bind_port(port_.data, rtl::PortDir::kIn, 8 * lane_bytes_, "data");
  bind_port(port_.sync, rtl::PortDir::kIn, "sync");
  bind_port(port_.valid, rtl::PortDir::kIn, "valid");
  const rtl::ProcessId pid = clocked("observe", clk_, [this] { on_clk(); });
  wake_on(pid, {port_.valid.id()});
}

void CellPortMonitor::on_clk() {
  if (!port_.valid.read_bool()) {
    gate();  // between cells; data/sync are only read while valid is high
    return;
  }
  const bool sync = port_.sync.read_bool();
  if (sync && count_ != 0) {
    // Mid-cell resynchronization: drop the partial cell.
    ++framing_errors_;
    count_ = 0;
  }
  if (!sync && count_ == 0) {
    // Valid word outside any cell frame: framing error, skip.
    ++framing_errors_;
    return;
  }
  // The last word of a cell carries padding octets past octet 52: drop them.
  const std::uint64_t word = port_.data.read_uint();
  for (std::size_t i = 0; i < lane_bytes_ && count_ < atm::kCellBytes; ++i) {
    shift_[count_++] = static_cast<std::uint8_t>(word >> (8 * i));
  }
  if (count_ < atm::kCellBytes) return;
  count_ = 0;
  try {
    atm::Cell c = atm::Cell::from_bytes(shift_.data());
    cells_.push_back(c);
    if (callback_) callback_(c);
  } catch (const ProtocolError&) {
    ++hec_discards_;
  }
}

}  // namespace castanet::hw
