#include "src/core/log.hpp"

#include <gtest/gtest.h>

namespace castanet {
namespace {

struct LogLevelGuard {
  LogLevel saved = log_level();
  ~LogLevelGuard() { set_log_level(saved); }
};

TEST(Log, DefaultIsOff) {
  LogLevelGuard guard;
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(Log, LevelIsSticky) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST(Log, MacroShortCircuitsBelowLevel) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  CASTANET_LOG(kDebug, "test") << expensive();
  EXPECT_EQ(evaluations, 0);  // the stream expression must not evaluate
  CASTANET_LOG(kError, "test") << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(Log, EmitsWhenEnabled) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  // Behavioural smoke: no crash, ordered severity comparisons work.
  CASTANET_LOG(kInfo, "component") << "value=" << 7;
  CASTANET_LOG(kWarn, "component") << "warn";
  SUCCEED();
}

}  // namespace
}  // namespace castanet
