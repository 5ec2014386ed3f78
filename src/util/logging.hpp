// Minimal leveled logger. The exploration and mapping passes emit progress
// through this interface so examples/benches can silence or redirect it.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace rsp::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns a human-readable name ("DEBUG", "INFO", ...).
const char* to_string(LogLevel level);

/// Sink invoked for every emitted record at or above the threshold.
/// The sink is mutex-guarded and the threshold atomic, so any thread (the
/// evaluation runtime's workers included) may log concurrently; the sink
/// runs under the logger's lock and therefore sees one whole record at a
/// time, in a single global order. Sinks must not call back into the
/// logger.
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Replaces the process-wide sink; returns the previous one.
/// The default sink writes to stderr.
LogSink set_log_sink(LogSink sink);

/// Sets the minimum level that reaches the sink (default kWarning so
/// library use is quiet unless asked).
void set_log_threshold(LogLevel level);
LogLevel log_threshold();

/// True when `level` passes the threshold: one atomic load and no lock,
/// so RSP_LOG checks it before formatting anything.
bool log_enabled(LogLevel level);

/// Emits one record if `level` passes the threshold.
void log(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Turns `LogLine << ...` into a void expression for RSP_LOG's `?:`
/// (`&` binds looser than `<<`).
struct Voidify {
  void operator&(const LogLine&) const {}
};
}  // namespace detail

}  // namespace rsp::util

/// `RSP_LOG(kInfo) << a << b;` emits one record. Below the threshold the
/// statement evaluates none of its operands and takes no lock.
#define RSP_LOG(level)                                             \
  !::rsp::util::log_enabled(::rsp::util::LogLevel::level)          \
      ? (void)0                                                    \
      : ::rsp::util::detail::Voidify() &                           \
            ::rsp::util::detail::LogLine(::rsp::util::LogLevel::level)
