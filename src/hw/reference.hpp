// Algorithm reference models (the "Algorithm Reference Model" box in
// Fig. 1).  These are the abstract, cell-level descriptions of the devices
// under test; the co-verification environment compares DUT responses against
// them.  They are deliberately independent implementations — they share only
// configuration types with the RTL, not logic — so a bug in either side
// produces a visible mismatch.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/atm/cell.hpp"
#include "src/atm/connection.hpp"
#include "src/hw/accounting.hpp"

namespace castanet::hw {

/// Cell-level switch reference: header translation + output routing.
class SwitchRef {
 public:
  explicit SwitchRef(std::size_t ports);

  atm::ConnectionTable& table(std::size_t in_port);
  /// Translates/routes one cell; nullopt when the connection is unknown
  /// (misinserted cell, dropped).
  struct Routed {
    std::size_t out_port;
    atm::Cell cell;
  };
  std::optional<Routed> route(std::size_t in_port, const atm::Cell& c);

  std::size_t ports() const { return tables_.size(); }
  std::uint64_t routed_count() const { return routed_; }
  std::uint64_t misinserted() const { return misinserted_; }

 private:
  std::vector<atm::ConnectionTable> tables_;
  std::uint64_t routed_ = 0;
  std::uint64_t misinserted_ = 0;
};

/// Cell-level accounting reference with the same tariff semantics as the
/// RTL AccountingUnit.
class AccountingRef {
 public:
  explicit AccountingRef(std::size_t max_connections);

  void bind_connection(atm::VcId vc, std::size_t index,
                       std::uint8_t tariff_class);
  void set_tariff(std::uint8_t tariff_class, Tariff t);

  void observe(const atm::Cell& c);
  void clear(std::size_t index);

  std::uint64_t count(std::size_t index) const;
  std::uint64_t clp1_count(std::size_t index) const;
  std::uint64_t charge(std::size_t index) const;
  bool unknown_vc_seen() const { return unknown_vc_seen_; }
  std::uint64_t cells_observed() const { return cells_observed_; }

 private:
  struct Binding {
    std::size_t index;
    std::uint8_t tariff_class;
  };
  std::unordered_map<atm::VcId, Binding, atm::VcIdHash> bindings_;
  std::vector<Tariff> tariffs_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> clp1_counts_;
  std::vector<std::uint64_t> charges_;
  bool unknown_vc_seen_ = false;
  std::uint64_t cells_observed_ = 0;
};

}  // namespace castanet::hw
