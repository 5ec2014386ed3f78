#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace rsp::util {

namespace {

// One mutex guards the sink and every emission. Sink invocation
// deliberately happens *under* the lock: records from runtime worker
// threads arrive at the sink whole and in a single global order, and a
// sink swapped out by set_log_sink can never be entered again after the
// swap returns. The contract (documented on LogSink) is that sinks must
// not call back into the logger. The threshold is atomic so a disabled
// RSP_LOG line can skip the lock; `log` reads it again under the lock.
std::mutex g_mutex;
std::atomic<LogLevel> g_threshold{LogLevel::kWarning};

void default_sink(LogLevel level, const std::string& message) {
  std::cerr << "[rsp:" << to_string(level) << "] " << message << '\n';
}

LogSink& sink_storage() {
  static LogSink sink = default_sink;
  return sink;
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

LogSink set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  LogSink previous = sink_storage();
  sink_storage() = std::move(sink);
  return previous;
}

void set_log_threshold(LogLevel level) { g_threshold.store(level); }

LogLevel log_threshold() { return g_threshold.load(); }

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(g_threshold.load());
}

void log(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!log_enabled(level)) return;
  if (sink_storage()) sink_storage()(level, message);
}

}  // namespace rsp::util
