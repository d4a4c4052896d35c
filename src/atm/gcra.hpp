// Generic Cell Rate Algorithm (ITU-T I.371 / ATM Forum UNI 4.0), virtual
// scheduling formulation: the traffic contract of the "ATM traffic
// management sector" applications the paper targets, and the reference the
// GCRA boundary conformance vectors (traffic/conformance) are checked
// against.
#pragma once

#include <cstdint>

#include "src/dsim/time.hpp"

namespace castanet::atm {

/// GCRA(T, tau): increment T (the reciprocal of the contracted rate) and
/// limit tau (cell delay variation tolerance).
class Gcra {
 public:
  Gcra(SimTime increment, SimTime limit)
      : increment_(increment), limit_(limit) {}

  /// Processes a cell arriving at `t`; returns true when conforming.  A
  /// conforming arrival updates the theoretical arrival time; a
  /// non-conforming one leaves the state unchanged (UNI 4.0 behaviour).
  bool conforms(SimTime t);

  /// The theoretical arrival time of the next cell.
  SimTime tat() const { return tat_; }

  std::uint64_t conforming_count() const { return conforming_; }
  std::uint64_t nonconforming_count() const { return nonconforming_; }

  void reset();

 private:
  SimTime increment_;
  SimTime limit_;
  SimTime tat_ = SimTime::zero();
  bool first_ = true;
  std::uint64_t conforming_ = 0;
  std::uint64_t nonconforming_ = 0;
};

}  // namespace castanet::atm
