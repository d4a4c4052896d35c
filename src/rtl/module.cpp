#include "src/rtl/module.hpp"

namespace castanet::rtl {

ClockGen::ClockGen(Simulator& sim, Signal clk, SimTime period, SimTime phase)
    : sim_(&sim), id_(sim.add_clock(clk.id(), period, phase)),
      period_(period) {}

}  // namespace castanet::rtl
