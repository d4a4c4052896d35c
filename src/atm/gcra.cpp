#include "src/atm/gcra.hpp"

namespace castanet::atm {

bool Gcra::conforms(SimTime t) {
  if (first_) {
    first_ = false;
    tat_ = t + increment_;
    ++conforming_;
    return true;
  }
  if (t < tat_ - limit_) {
    // Arrived too early beyond the CDV tolerance: non-conforming.
    ++nonconforming_;
    return false;
  }
  tat_ = (t > tat_ ? t : tat_) + increment_;
  ++conforming_;
  return true;
}

void Gcra::reset() {
  tat_ = SimTime::zero();
  first_ = true;
  conforming_ = 0;
  nonconforming_ = 0;
}

}  // namespace castanet::atm
