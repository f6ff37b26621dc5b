#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "obs/export.hpp"

namespace appclass::obs {
namespace {

/// Minimal recursive-descent JSON scanner: enough to walk the recorder's
/// trace_event dialect while tolerating (and raw-capturing) anything it
/// does not model.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r'))
      ++p_;
  }

  bool consume(char c) {
    skip_ws();
    if (p_ >= end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  /// Walks an object: `on_member(key)` parses each member's value.
  template <typename OnMember>
  bool parse_object(OnMember&& on_member) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    std::string key;
    do {
      if (!parse_string(key) || !consume(':') || !on_member(key))
        return false;
    } while (consume(','));
    return consume('}');
  }

  /// Walks an array: `on_element()` parses each element.
  template <typename OnElement>
  bool parse_array(OnElement&& on_element) {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!on_element()) return false;
    } while (consume(','));
    return consume(']');
  }

  bool parse_string(std::string& out) {
    out.clear();
    skip_ws();
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ >= end_) return false;
      const char e = *p_++;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          unsigned code = 0;
          if (std::from_chars(p_, p_ + 4, code, 16).ptr != p_ + 4) return false;
          p_ += 4;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }

  /// Parses any JSON value; when `raw` is non-null, captures its exact
  /// source text (so re-serialization preserves numbers vs strings).
  bool parse_value_raw(std::string* raw) {
    skip_ws();
    const char* start = p_;
    if (p_ >= end_) return false;
    bool ok = false;
    if (*p_ == '"') {
      std::string scratch;
      ok = parse_string(scratch);
    } else if (*p_ == '{') {
      ok = parse_object(
          [this](const std::string&) { return parse_value_raw(nullptr); });
    } else if (*p_ == '[') {
      ok = parse_array([this] { return parse_value_raw(nullptr); });
    } else {
      // number / true / false / null
      const char* token = p_;
      while (p_ < end_ &&
             (std::strchr("+-.eE", *p_) != nullptr ||
              (*p_ >= '0' && *p_ <= '9') || (*p_ >= 'a' && *p_ <= 'z')))
        ++p_;
      ok = p_ > token;
    }
    if (ok && raw) raw->assign(start, static_cast<std::size_t>(p_ - start));
    return ok;
  }

  /// An integer literal that fits int64_t, the only form the trace
  /// writers emit; 10.5, 1e30, nan and 2^63 are rejected, not cast.
  bool parse_int(std::int64_t& out) {
    std::string raw;
    if (!parse_value_raw(&raw)) return false;
    const char* end = raw.data() + raw.size();
    const auto [ptr, ec] = std::from_chars(raw.data(), end, out);
    return ec == std::errc{} && ptr == end;
  }

 private:
  const char* p_;
  const char* end_;
};

bool parse_trace_event(JsonScanner& scanner, ChromeTraceEvent& event) {
  return scanner.parse_object([&](std::string& key) {
    if (key == "name") return scanner.parse_string(event.name);
    if (key == "cat") return scanner.parse_string(event.cat);
    if (key == "ph") return scanner.parse_string(event.ph);
    if (key == "s") return scanner.parse_string(event.scope);
    if (key == "pid") return scanner.parse_int(event.pid);
    if (key == "tid") return scanner.parse_int(event.tid);
    if (key == "ts") return scanner.parse_int(event.ts);
    if (key == "dur") {
      event.has_dur = true;
      return scanner.parse_int(event.dur);
    }
    if (key == "args")
      return scanner.parse_object([&](std::string& arg_key) {
        std::string raw;
        if (!scanner.parse_value_raw(&raw)) return false;
        event.args.emplace_back(std::move(arg_key), std::move(raw));
        return true;
      });
    return scanner.parse_value_raw(nullptr);
  });
}

void append_event(std::string& out, const ChromeTraceEvent& e) {
  out.append("\n{\"name\":\"");
  json_escape_into(out, e.name);
  out.push_back('"');
  if (!e.cat.empty()) {
    out.append(",\"cat\":\"");
    json_escape_into(out, e.cat);
    out.push_back('"');
  }
  out.append(",\"ph\":\"");
  json_escape_into(out, e.ph);
  out.push_back('"');
  if (!e.scope.empty()) {
    out.append(",\"s\":\"");
    json_escape_into(out, e.scope);
    out.push_back('"');
  }
  out.append(",\"pid\":");
  out.append(std::to_string(e.pid));
  out.append(",\"tid\":");
  out.append(std::to_string(e.tid));
  out.append(",\"ts\":");
  out.append(std::to_string(e.ts));
  if (e.has_dur) {
    out.append(",\"dur\":");
    out.append(std::to_string(e.dur));
  }
  out.append(",\"args\":{");
  bool first = true;
  for (const auto& [key, raw] : e.args) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json_escape_into(out, key);
    out.append("\":");
    out.append(raw);
  }
  out.append("}}");
}

}  // namespace

std::optional<ChromeTrace> parse_chrome_trace(std::string_view json) {
  JsonScanner scanner(json);
  ChromeTrace trace;
  const bool ok = scanner.parse_object([&](const std::string& key) {
    if (key == "traceEvents")
      return scanner.parse_array([&] {
        return parse_trace_event(scanner, trace.events.emplace_back());
      });
    if (key == "epochWallUs") return scanner.parse_int(trace.epoch_wall_us);
    if (key == "droppedEvents") {
      std::int64_t dropped = 0;
      if (!scanner.parse_int(dropped)) return false;
      if (dropped > 0)
        trace.dropped_events = static_cast<std::uint64_t>(dropped);
      return true;
    }
    return scanner.parse_value_raw(nullptr);
  });
  if (!ok) return std::nullopt;
  return trace;
}

std::string write_chrome_trace(const ChromeTrace& trace,
                               std::size_t max_bytes) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"epochWallUs\":";
  out.append(std::to_string(trace.epoch_wall_us));
  out.append(",\"traceEvents\":[");
  const std::size_t header = out.size();
  // Every event is written after a comma, so an event's cost in the
  // array is the distance to the next one's start; the first kept
  // event's comma is cut below.
  std::vector<std::size_t> starts;
  starts.reserve(trace.events.size());
  out.reserve(header + 64 + trace.events.size() * 160);
  for (const ChromeTraceEvent& e : trace.events) {
    starts.push_back(out.size());
    out.push_back(',');
    append_event(out, e);
  }

  // Keep the newest events that fit the byte budget (the tail); the
  // drop count makes truncation visible.
  std::size_t begin = 0;
  if (max_bytes > 0) {
    // "\n],\"droppedEvents\":<u64>}\n" upper bound.
    const std::size_t footer_reserve = 24 + 20;
    const std::size_t budget = max_bytes > header + footer_reserve
                                   ? max_bytes - header - footer_reserve
                                   : 0;
    begin = starts.size();
    while (begin > 0 && out.size() - starts[begin - 1] <= budget) --begin;
  }
  // Cut the dropped events and the first kept event's comma.
  const std::size_t keep_from =
      begin < starts.size() ? starts[begin] + 1 : out.size();
  out.erase(header, keep_from - header);

  const std::uint64_t dropped = trace.dropped_events + begin;
  if (dropped > 0) {
    out.append("\n],\"droppedEvents\":");
    out.append(std::to_string(dropped));
    out.append("}\n");
  } else {
    out.append("\n]}\n");
  }
  return out;
}

StitchResult stitch_chrome_traces(const std::vector<TraceFleetPart>& parts) {
  StitchResult result;
  struct Parsed {
    std::string process;
    ChromeTrace trace;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(parts.size());
  for (const TraceFleetPart& part : parts) {
    auto trace = parse_chrome_trace(part.json);
    if (!trace) {
      ++result.parts_failed;
      continue;
    }
    parsed.push_back({part.process, std::move(*trace)});
  }
  result.parts_stitched = parsed.size();

  // Earliest known recorder epoch anchors the merged time axis; parts
  // without an anchor (legacy dumps) keep their native timestamps.
  ChromeTrace merged;
  for (const Parsed& p : parsed) {
    if (p.trace.epoch_wall_us != 0 &&
        (merged.epoch_wall_us == 0 ||
         p.trace.epoch_wall_us < merged.epoch_wall_us))
      merged.epoch_wall_us = p.trace.epoch_wall_us;
    merged.dropped_events += p.trace.dropped_events;
  }

  // One process_name record per lane, then every part's events.
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ChromeTraceEvent label;
    label.name = "process_name";
    label.ph = "M";
    label.pid = static_cast<std::int64_t>(i) + 1;
    label.args.emplace_back("name", json_quoted(parsed[i].process));
    merged.events.push_back(std::move(label));
  }
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const std::int64_t wall_us = parsed[i].trace.epoch_wall_us;
    const std::int64_t shift = (wall_us != 0 && merged.epoch_wall_us != 0)
                                   ? wall_us - merged.epoch_wall_us
                                   : 0;
    for (ChromeTraceEvent& e : parsed[i].trace.events) {
      e.pid = static_cast<std::int64_t>(i) + 1;
      e.ts += shift;
      merged.events.push_back(std::move(e));
    }
  }
  std::stable_sort(
      merged.events.begin() + static_cast<std::ptrdiff_t>(parsed.size()),
      merged.events.end(),
      [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
        return a.ts < b.ts;
      });

  result.events = merged.events.size();
  result.json = write_chrome_trace(merged);
  return result;
}

}  // namespace appclass::obs
