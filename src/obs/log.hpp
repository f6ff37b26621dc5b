// Leveled structured logging for the appclass stack.
//
// Design goals, in order:
//   1. Zero cost when disabled: the APPCLASS_LOG_* macros guard on one
//      relaxed atomic load before any field is even constructed, and the
//      default level is kOff so libraries, tests, and benchmarks stay
//      silent unless a binary (or APPCLASS_LOG_LEVEL) opts in.
//   2. Structured: every record is `<ts> <LEVEL> <event> key=value ...`,
//      machine-greppable, no printf format strings at call sites.
//   3. Swappable sink: stderr by default, a file via set_sink_file()/
//      APPCLASS_LOG_FILE, or an in-memory callback for tests.
//
// Usage:
//   APPCLASS_LOG_INFO("sched.dispatch", {"vm", vm_index}, {"job", name});
//   APPCLASS_LOG_DEBUG("fault.blackout", {"node", ip}, {"until", t});
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

namespace appclass::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

std::string_view to_string(LogLevel level) noexcept;

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive);
/// returns `fallback` on anything else.
LogLevel parse_log_level(std::string_view text,
                         LogLevel fallback = LogLevel::kOff) noexcept;

/// One key=value pair: a field of a log record or an attribute of a span
/// (obs/trace.hpp). The value is formatted eagerly, so call sites build
/// one only after the level guard (see the macros below) or
/// TraceSpan::recording() has passed.
struct Attr {
  std::string key;
  std::string value;

  Attr(std::string_view k, std::string_view v) : key(k), value(v) {}
  Attr(std::string_view k, const char* v) : key(k), value(v) {}
  Attr(std::string_view k, const std::string& v) : key(k), value(v) {}
  Attr(std::string_view k, bool v) : key(k), value(v ? "true" : "false") {}
  Attr(std::string_view k, double v);  ///< %.6g
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Attr(std::string_view k, T v) : key(k), value(std::to_string(v)) {}
};

/// Process-wide logger configuration. All members are safe to call from
/// multiple threads.
class Logger {
 public:
  static Logger& global();

  void set_level(LogLevel level) noexcept {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const noexcept {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  /// Redirects records to `path` (append). Returns false (and keeps the
  /// current sink) if the file cannot be opened.
  bool set_sink_file(const std::string& path);
  /// Sends records to a callback (tests). Passing nullptr restores stderr.
  void set_sink(std::function<void(const std::string& line)> sink);
  /// Restores the default stderr sink.
  void reset_sink();

  /// Reads APPCLASS_LOG_LEVEL and APPCLASS_LOG_FILE. Unset variables
  /// leave the current configuration untouched.
  void configure_from_env();

  /// Formats and emits one record. Call through the macros so disabled
  /// levels cost a single atomic load.
  void emit(LogLevel level, std::string_view event,
            std::initializer_list<Attr> fields);

 private:
  Logger() = default;
  std::atomic<int> level_{static_cast<int>(LogLevel::kOff)};
};

inline bool log_enabled(LogLevel level) noexcept {
  return Logger::global().enabled(level);
}

}  // namespace appclass::obs

// The guard runs before the field initializer list is evaluated, so
// call-site argument formatting is skipped entirely when disabled.
#define APPCLASS_LOG_AT(lvl, event, ...)                                  \
  do {                                                                    \
    if (::appclass::obs::log_enabled(lvl))                                \
      ::appclass::obs::Logger::global().emit((lvl), (event),              \
                                             {__VA_ARGS__});              \
  } while (0)

#define APPCLASS_LOG_TRACE(event, ...) \
  APPCLASS_LOG_AT(::appclass::obs::LogLevel::kTrace, event, ##__VA_ARGS__)
#define APPCLASS_LOG_DEBUG(event, ...) \
  APPCLASS_LOG_AT(::appclass::obs::LogLevel::kDebug, event, ##__VA_ARGS__)
#define APPCLASS_LOG_INFO(event, ...) \
  APPCLASS_LOG_AT(::appclass::obs::LogLevel::kInfo, event, ##__VA_ARGS__)
#define APPCLASS_LOG_WARN(event, ...) \
  APPCLASS_LOG_AT(::appclass::obs::LogLevel::kWarn, event, ##__VA_ARGS__)
#define APPCLASS_LOG_ERROR(event, ...) \
  APPCLASS_LOG_AT(::appclass::obs::LogLevel::kError, event, ##__VA_ARGS__)
