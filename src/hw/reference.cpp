#include "src/hw/reference.hpp"

#include "src/core/error.hpp"

namespace castanet::hw {

// --- SwitchRef ---------------------------------------------------------------

SwitchRef::SwitchRef(std::size_t ports) : tables_(ports) {
  require(ports > 0, "SwitchRef: need at least one port");
}

atm::ConnectionTable& SwitchRef::table(std::size_t in_port) {
  require(in_port < tables_.size(), "SwitchRef::table: bad port");
  return tables_[in_port];
}

std::optional<SwitchRef::Routed> SwitchRef::route(std::size_t in_port,
                                                  const atm::Cell& c) {
  require(in_port < tables_.size(), "SwitchRef::route: bad port");
  const auto r = tables_[in_port].lookup({c.header.vpi, c.header.vci});
  if (!r) {
    ++misinserted_;
    return std::nullopt;
  }
  Routed out;
  out.out_port = r->out_port;
  out.cell = c;
  out.cell.header.vpi = r->out_vc.vpi;
  out.cell.header.vci = r->out_vc.vci;
  ++routed_;
  return out;
}

// --- AccountingRef -----------------------------------------------------------

AccountingRef::AccountingRef(std::size_t max_connections)
    : tariffs_(256), counts_(max_connections, 0),
      clp1_counts_(max_connections, 0), charges_(max_connections, 0) {
  require(max_connections > 0, "AccountingRef: need at least 1 connection");
}

void AccountingRef::bind_connection(atm::VcId vc, std::size_t index,
                                    std::uint8_t tariff_class) {
  require(index < counts_.size(), "bind_connection: index out of range");
  bindings_[vc] = Binding{index, tariff_class};
}

void AccountingRef::set_tariff(std::uint8_t tariff_class, Tariff t) {
  tariffs_[tariff_class] = t;
}

void AccountingRef::observe(const atm::Cell& c) {
  ++cells_observed_;
  auto it = bindings_.find({c.header.vpi, c.header.vci});
  if (it == bindings_.end()) {
    unknown_vc_seen_ = true;
    return;
  }
  const Binding& b = it->second;
  ++counts_[b.index];
  if (c.header.clp) ++clp1_counts_[b.index];
  const Tariff& t = tariffs_[b.tariff_class];
  charges_[b.index] += c.header.clp ? t.clp1_price : t.clp0_price;
}

void AccountingRef::clear(std::size_t index) {
  require(index < counts_.size(), "clear: index out of range");
  counts_[index] = 0;
  clp1_counts_[index] = 0;
  charges_[index] = 0;
  unknown_vc_seen_ = false;
}

std::uint64_t AccountingRef::count(std::size_t index) const {
  require(index < counts_.size(), "count: index out of range");
  return counts_[index];
}

std::uint64_t AccountingRef::clp1_count(std::size_t index) const {
  require(index < clp1_counts_.size(), "clp1_count: index out of range");
  return clp1_counts_[index];
}

std::uint64_t AccountingRef::charge(std::size_t index) const {
  require(index < charges_.size(), "charge: index out of range");
  return charges_[index];
}

}  // namespace castanet::hw
