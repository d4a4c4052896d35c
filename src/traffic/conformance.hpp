// Conformance test vector generation (the "Customized / Standardized
// Conformance Test Vectors" stimuli of Fig. 1).
//
// Unlike the stochastic models, conformance vectors are deterministic
// patterns that probe protocol corner cases: header field sweeps and GCRA
// boundary timing (cells exactly at / just inside / just outside the
// contract).
#pragma once

#include <cstdint>
#include <vector>

#include "src/atm/connection.hpp"
#include "src/traffic/sources.hpp"

namespace castanet::traffic {

/// Sweeps VPI/VCI/PTI/CLP across their ranges (subsampled by `stride` on the
/// 16-bit VCI space) at a fixed cell period — exercises translation tables
/// and header encode/decode paths exhaustively.
std::vector<CellArrival> header_sweep_vectors(SimTime period,
                                              unsigned vci_stride = 257);

/// Emits cells on `vc` timed exactly at the GCRA(increment, limit) limits:
/// alternating maximally-early conforming arrivals and arrivals one tick too
/// early (which a correct policer must reject).  `violations_out` receives
/// the indices of the intentionally non-conforming cells.
std::vector<CellArrival> gcra_boundary_vectors(
    atm::VcId vc, SimTime increment, SimTime limit, std::size_t count,
    std::vector<std::size_t>& violations_out);

}  // namespace castanet::traffic
