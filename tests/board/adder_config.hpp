// The board configuration of the adder DUT in test_board.cpp: two 8-bit
// operand inports, a sum outport, and an 8-bit bus (inport 2 / outport 1)
// paired through an I/O port whose direction is ctrlport 0.
#pragma once

#include "src/board/config.hpp"

namespace castanet::board {

inline ConfigDataSet adder_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  cfg.inports.push_back({1, 8, {{1, 0, 8}}});
  cfg.inports.push_back({2, 8, {{2, 0, 8}}});  // bus, tester side
  cfg.outports.push_back({0, 8, {{8, 0, 8}}});
  cfg.outports.push_back({1, 8, {{9, 0, 8}}});  // bus, DUT side
  cfg.ctrlports.push_back({0, 1, {{3, 0, 1}}, 0});
  cfg.ioports.push_back({2, 1, 0, 8, 1});
  return cfg;
}

}  // namespace castanet::board
