#include "src/traffic/conformance.hpp"

#include "src/core/error.hpp"

namespace castanet::traffic {

std::vector<CellArrival> header_sweep_vectors(SimTime period,
                                              unsigned vci_stride) {
  require(period > SimTime::zero(), "header_sweep: period must be positive");
  require(vci_stride > 0, "header_sweep: stride must be positive");
  std::vector<CellArrival> out;
  SimTime t = SimTime::zero();
  // VPI sweep (8-bit UNI) with fixed VCI.
  for (unsigned vpi = 0; vpi <= 0xFF; ++vpi) {
    CellArrival a;
    a.time = t;
    a.cell.header.vpi = static_cast<std::uint16_t>(vpi);
    a.cell.header.vci = 42;
    out.push_back(a);
    t += period;
  }
  // VCI sweep with fixed VPI.
  for (unsigned vci = 1; vci <= 0xFFFF; vci += vci_stride) {
    CellArrival a;
    a.time = t;
    a.cell.header.vpi = 1;
    a.cell.header.vci = static_cast<std::uint16_t>(vci);
    out.push_back(a);
    t += period;
  }
  // PTI x CLP sweep.
  for (unsigned pti = 0; pti <= 7; ++pti) {
    for (unsigned clp = 0; clp <= 1; ++clp) {
      CellArrival a;
      a.time = t;
      a.cell.header.vpi = 1;
      a.cell.header.vci = 42;
      a.cell.header.pti = static_cast<std::uint8_t>(pti);
      a.cell.header.clp = clp != 0;
      out.push_back(a);
      t += period;
    }
  }
  return out;
}

std::vector<CellArrival> gcra_boundary_vectors(
    atm::VcId vc, SimTime increment, SimTime limit, std::size_t count,
    std::vector<std::size_t>& violations_out) {
  require(increment > SimTime::zero(),
          "gcra_boundary: increment must be positive");
  violations_out.clear();
  std::vector<CellArrival> out;
  // Track the policer's TAT exactly as the reference GCRA will.
  SimTime tat = SimTime::zero();
  SimTime t = SimTime::zero();
  bool first = true;
  const SimTime tick = SimTime::from_ps(1);
  for (std::size_t i = 0; i < count; ++i) {
    CellArrival a;
    a.cell.header.vpi = vc.vpi;
    a.cell.header.vci = vc.vci;
    a.cell.payload[0] = static_cast<std::uint8_t>(i >> 8);
    a.cell.payload[1] = static_cast<std::uint8_t>(i & 0xFF);
    if (first) {
      a.time = t;
      tat = t + increment;
      first = false;
    } else if (i % 3 == 2 && tat - limit > t + tick) {
      // Deliberately one tick earlier than the earliest conforming time.
      a.time = tat - limit - tick;
      violations_out.push_back(i);
      // Non-conforming: TAT unchanged.
    } else {
      // Maximally early conforming arrival.
      a.time = tat - limit < t ? t : tat - limit;
      tat = (a.time > tat ? a.time : tat) + increment;
    }
    t = a.time;
    out.push_back(a);
  }
  return out;
}

}  // namespace castanet::traffic
