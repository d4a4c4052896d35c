// Minimal leveled logger.
//
// The simulators are libraries, so logging goes through a single global sink
// that callers can silence (default) or direct to stderr.  Benchmarks keep it
// off; examples turn it on for narration.
//
// Thread discipline: log_message is safe to call from any thread.  Each call
// emits its line with ONE stderr write under a process-wide mutex, so lines
// never interleave.
#pragma once

#include <sstream>
#include <string>

namespace castanet {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the minimum level that is emitted.  Default: kOff.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits `msg` tagged with `level` and `component` to stderr if enabled.
/// One write per line; never interleaves with other threads' lines.
void log_message(LogLevel level, const std::string& component,
                 const std::string& msg);

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { log_message(level_, component_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

/// Usage: CASTANET_LOG(kInfo, "castanet") << "advanced to " << t;
#define CASTANET_LOG(level, component)                                \
  if (::castanet::LogLevel::level < ::castanet::log_level()) {        \
  } else                                                              \
    ::castanet::detail::LogLine(::castanet::LogLevel::level, component)

}  // namespace castanet
