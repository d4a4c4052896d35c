#include "src/core/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace castanet {
namespace {
// Atomic so one thread may consult the level while another thread (a test
// fixture, an example's CLI handling) changes it.
std::atomic<LogLevel> g_level{LogLevel::kOff};
std::mutex g_sink_mu;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, const std::string& component,
                 const std::string& msg) {
  if (level < log_level()) return;
  // Compose the full line first, then emit it with a single write under the
  // sink mutex: concurrent callers' interleaved fragments would make the
  // narration useless.
  std::string line = "[";
  line += level_name(level);
  line += "] ";
  line += component;
  line += ": ";
  line += msg;
  line += "\n";
  std::lock_guard<std::mutex> lk(g_sink_mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace castanet
