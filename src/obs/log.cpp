#include "obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace appclass::obs {
namespace {

std::mutex g_sink_mutex;
std::function<void(const std::string&)> g_sink;  // guarded by g_sink_mutex
std::FILE* g_sink_file = nullptr;                // guarded by g_sink_mutex

char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

/// True when the value needs quoting to stay one grep-able token.
bool needs_quotes(std::string_view v) noexcept {
  if (v.empty()) return true;
  for (const char c : v)
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t')
      return true;
  return false;
}

void append_value(std::string& out, std::string_view v) {
  if (!needs_quotes(v)) {
    out.append(v);
    return;
  }
  out.push_back('"');
  for (const char c : v) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out.append("\\n");
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

Attr::Attr(std::string_view k, double v) : key(k) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6g", v);
  value = buffer;
}

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogLevel parse_log_level(std::string_view text, LogLevel fallback) noexcept {
  if (iequals(text, "trace")) return LogLevel::kTrace;
  if (iequals(text, "debug")) return LogLevel::kDebug;
  if (iequals(text, "info")) return LogLevel::kInfo;
  if (iequals(text, "warn") || iequals(text, "warning"))
    return LogLevel::kWarn;
  if (iequals(text, "error")) return LogLevel::kError;
  if (iequals(text, "off") || iequals(text, "none")) return LogLevel::kOff;
  return fallback;
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

bool Logger::set_sink_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink_file) std::fclose(g_sink_file);
  g_sink_file = f;
  g_sink = nullptr;
  return true;
}

void Logger::set_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink_file) {
    std::fclose(g_sink_file);
    g_sink_file = nullptr;
  }
  g_sink = std::move(sink);
}

void Logger::reset_sink() { set_sink(nullptr); }

void Logger::configure_from_env() {
  if (const char* level = std::getenv("APPCLASS_LOG_LEVEL"))
    set_level(parse_log_level(level, this->level()));
  if (const char* file = std::getenv("APPCLASS_LOG_FILE"))
    if (*file) set_sink_file(file);
}

void Logger::emit(LogLevel level, std::string_view event,
                  std::initializer_list<Attr> fields) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count();

  std::string line;
  line.reserve(64 + fields.size() * 24);
  char head[48];
  std::snprintf(head, sizeof head, "%lld.%03d ",
                static_cast<long long>(ms / 1000),
                static_cast<int>(ms % 1000));
  line.append(head);
  line.append(to_string(level));
  line.push_back(' ');
  line.append(event);
  for (const Attr& f : fields) {
    line.push_back(' ');
    line.append(f.key);
    line.push_back('=');
    append_value(line, f.value);
  }

  // Mirror the record into the flight recorder (as a Chrome instant
  // event, tagged with the ambient trace context) before taking the sink
  // lock, so recorder dumps interleave log lines with spans.
  if (tracing_enabled())
    TraceRecorder::global().record_instant(
        event, current_trace_context(), {Attr("log", line)});

  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink) {
    g_sink(line);
    return;
  }
  std::FILE* out = g_sink_file ? g_sink_file : stderr;
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
}

}  // namespace appclass::obs
