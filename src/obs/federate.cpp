#include "obs/federate.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>

#include "obs/export.hpp"

namespace appclass::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

/// Reverses the label-value escaping in obs/export.cpp: `\\` -> `\`,
/// `\"` -> `"`, `\n` -> newline. Any other escape is malformed.
bool unescape_label_value(std::string_view in, std::string& out) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= in.size()) return false;
    switch (in[i]) {
      case '\\': out.push_back('\\'); break;
      case '"': out.push_back('"'); break;
      case 'n': out.push_back('\n'); break;
      default: return false;
    }
  }
  return true;
}

/// Parses `{k="v",...}` starting at `pos` (which must point at '{').
/// Advances `pos` past the closing brace.
bool parse_labels(std::string_view line, std::size_t& pos, Labels& out) {
  out.clear();
  ++pos;  // '{'
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
    return true;
  }
  while (pos < line.size()) {
    std::size_t key_end = pos;
    while (key_end < line.size() && is_name_char(line[key_end])) ++key_end;
    if (key_end == pos || key_end + 1 >= line.size() ||
        line[key_end] != '=' || line[key_end + 1] != '"')
      return false;
    const std::string key(line.substr(pos, key_end - pos));
    std::size_t v = key_end + 2;  // past ="
    const std::size_t value_begin = v;
    while (v < line.size() && line[v] != '"') {
      if (line[v] == '\\') ++v;  // skip escaped char
      ++v;
    }
    if (v >= line.size()) return false;
    std::string value;
    if (!unescape_label_value(line.substr(value_begin, v - value_begin),
                              value))
      return false;
    out.emplace_back(key, std::move(value));
    ++v;  // closing quote
    if (v >= line.size()) return false;
    if (line[v] == ',') {
      pos = v + 1;
      continue;
    }
    if (line[v] == '}') {
      pos = v + 1;
      return true;
    }
    return false;
  }
  return false;
}

/// Digits only, at most UINT64_MAX: a larger value is rejected, not
/// wrapped.
bool parse_uint64(std::string_view token, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_float(std::string_view token, double& out) {
  if (token.empty() || token.size() >= 64) return false;
  char buffer[64];
  std::memcpy(buffer, token.data(), token.size());
  buffer[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  out = std::strtod(buffer, &end);
  return end == buffer + token.size();
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

enum class FamilyKind { kCounter, kGauge, kHistogram };

/// In-flight histogram series: buckets accumulate as they stream in,
/// validated (ascending bounds, non-decreasing cumulative counts, +Inf
/// terminal) and de-cumulated at finalize.
struct HistAcc {
  std::string name;
  Labels labels;
  std::vector<double> bounds;              // excludes +Inf
  std::vector<std::uint64_t> cumulative;   // includes the +Inf bucket
  bool saw_inf = false;
  std::uint64_t count = 0;
  double sum = 0.0;
  bool have_sum = false;
  bool have_count = false;
};

}  // namespace

std::optional<RegistrySnapshot> parse_prometheus(std::string_view text) {
  std::map<std::string, FamilyKind, std::less<>> families;
  std::map<std::string, CounterSnapshot> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistAcc> hists;

  std::size_t line_begin = 0;
  while (line_begin <= text.size()) {
    std::size_t line_end = text.find('\n', line_begin);
    if (line_end == std::string_view::npos) line_end = text.size();
    std::string_view line = text.substr(line_begin, line_end - line_begin);
    line_begin = line_end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    if (line[0] == '#') {
      // Only `# TYPE name kind` matters; HELP and free comments pass.
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) != kType) continue;
      std::string_view rest = line.substr(kType.size());
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) return std::nullopt;
      const std::string name(rest.substr(0, space));
      const std::string_view kind = rest.substr(space + 1);
      FamilyKind fk;
      if (kind == "counter") {
        fk = FamilyKind::kCounter;
      } else if (kind == "gauge") {
        fk = FamilyKind::kGauge;
      } else if (kind == "histogram") {
        fk = FamilyKind::kHistogram;
      } else {
        return std::nullopt;  // summary/untyped: unrepresentable here
      }
      if (!families.emplace(name, fk).second) return std::nullopt;
      continue;
    }

    // Sample line: name[{labels}] value
    std::size_t pos = 0;
    while (pos < line.size() && is_name_char(line[pos])) ++pos;
    if (pos == 0) return std::nullopt;
    const std::string_view sample_name = line.substr(0, pos);
    Labels labels;
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_labels(line, pos, labels)) return std::nullopt;
    }
    if (pos >= line.size() || line[pos] != ' ') return std::nullopt;
    ++pos;
    std::string_view value_token = line.substr(pos);
    while (!value_token.empty() && value_token.back() == ' ')
      value_token.remove_suffix(1);
    if (value_token.empty() ||
        value_token.find(' ') != std::string_view::npos)
      return std::nullopt;

    const auto family = families.find(sample_name);
    if (family != families.end()) {
      if (family->second == FamilyKind::kCounter) {
        CounterSnapshot c;
        c.name = std::string(sample_name);
        c.labels = std::move(labels);
        if (!parse_uint64(value_token, c.value)) return std::nullopt;
        const std::string key = series_key(c.name, c.labels);
        if (!counters.emplace(key, std::move(c)).second)
          return std::nullopt;  // duplicate series
      } else if (family->second == FamilyKind::kGauge) {
        GaugeSnapshot g;
        g.name = std::string(sample_name);
        g.labels = std::move(labels);
        if (!parse_float(value_token, g.value)) return std::nullopt;
        const std::string key = series_key(g.name, g.labels);
        if (!gauges.emplace(key, std::move(g)).second) return std::nullopt;
      } else {
        return std::nullopt;  // bare sample named like a histogram family
      }
      continue;
    }

    // Histogram component series: <family>_bucket / _sum / _count.
    std::string_view base;
    enum class Part { kBucket, kSum, kCount } part;
    if (ends_with(sample_name, "_bucket")) {
      base = sample_name.substr(0, sample_name.size() - 7);
      part = Part::kBucket;
    } else if (ends_with(sample_name, "_sum")) {
      base = sample_name.substr(0, sample_name.size() - 4);
      part = Part::kSum;
    } else if (ends_with(sample_name, "_count")) {
      base = sample_name.substr(0, sample_name.size() - 6);
      part = Part::kCount;
    } else {
      return std::nullopt;  // sample without a declared family
    }
    const auto hist_family = families.find(base);
    if (hist_family == families.end() ||
        hist_family->second != FamilyKind::kHistogram)
      return std::nullopt;

    double le = 0.0;
    if (part == Part::kBucket) {
      const auto it = std::find_if(
          labels.begin(), labels.end(),
          [](const auto& kv) { return kv.first == "le"; });
      if (it == labels.end()) return std::nullopt;
      if (it->second == "+Inf") {
        le = kInf;
      } else if (!parse_float(it->second, le)) {
        return std::nullopt;
      }
      labels.erase(it);
    }

    HistAcc& acc =
        hists
            .emplace(series_key(base, labels),
                     HistAcc{std::string(base), labels, {}, {}, false, 0,
                             0.0, false, false})
            .first->second;
    switch (part) {
      case Part::kBucket: {
        std::uint64_t cumulative = 0;
        if (!parse_uint64(value_token, cumulative)) return std::nullopt;
        if (acc.saw_inf) return std::nullopt;  // buckets after +Inf
        if (!acc.cumulative.empty() && cumulative < acc.cumulative.back())
          return std::nullopt;  // cumulative counts must not decrease
        if (le == kInf) {
          acc.saw_inf = true;
        } else {
          if (!acc.bounds.empty() && le <= acc.bounds.back())
            return std::nullopt;  // bounds must ascend
          acc.bounds.push_back(le);
        }
        acc.cumulative.push_back(cumulative);
        break;
      }
      case Part::kSum:
        if (acc.have_sum || !parse_float(value_token, acc.sum))
          return std::nullopt;
        acc.have_sum = true;
        break;
      case Part::kCount:
        if (acc.have_count || !parse_uint64(value_token, acc.count))
          return std::nullopt;
        acc.have_count = true;
        break;
    }
  }

  RegistrySnapshot out;
  out.counters.reserve(counters.size());
  for (auto& [key, c] : counters) out.counters.push_back(std::move(c));
  out.gauges.reserve(gauges.size());
  for (auto& [key, g] : gauges) out.gauges.push_back(std::move(g));
  out.histograms.reserve(hists.size());
  for (auto& [key, acc] : hists) {
    if (!acc.saw_inf || !acc.have_sum || !acc.have_count)
      return std::nullopt;
    HistogramSnapshot h;
    h.name = std::move(acc.name);
    h.labels = std::move(acc.labels);
    h.bounds = std::move(acc.bounds);
    h.bucket_counts.reserve(acc.cumulative.size());
    std::uint64_t previous = 0;
    for (const std::uint64_t cumulative : acc.cumulative) {
      h.bucket_counts.push_back(cumulative - previous);
      previous = cumulative;
    }
    h.count = acc.count;
    h.sum = acc.sum;
    out.histograms.push_back(std::move(h));
  }
  return out;
}

FederationResult federate_snapshots(const std::vector<FederationPart>& parts,
                                    BoundedLabelSet* worker_labels) {
  FederationResult result;
  std::map<std::string, CounterSnapshot> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> hists;

  for (const FederationPart& part : parts) {
    for (const CounterSnapshot& c : part.snapshot.counters) {
      auto [it, inserted] = counters.emplace(series_key(c.name, c.labels), c);
      if (!inserted) it->second.value += c.value;
    }
    for (const GaugeSnapshot& g : part.snapshot.gauges) {
      GaugeSnapshot labeled = g;
      if (!part.worker.empty()) {
        const std::string& value = worker_labels
                                       ? worker_labels->admit(part.worker)
                                       : part.worker;
        const std::pair<std::string, std::string> worker_label{"worker",
                                                               value};
        labeled.labels.insert(std::lower_bound(labeled.labels.begin(),
                                               labeled.labels.end(),
                                               worker_label),
                              worker_label);
      }
      const std::string key = series_key(labeled.name, labeled.labels);
      gauges.insert_or_assign(key, std::move(labeled));
    }
    for (const HistogramSnapshot& h : part.snapshot.histograms) {
      auto [it, inserted] = hists.emplace(series_key(h.name, h.labels), h);
      if (inserted) continue;
      HistogramSnapshot& merged = it->second;
      if (merged.bounds != h.bounds) {
        ++result.dropped_series;
        continue;
      }
      for (std::size_t i = 0; i < merged.bucket_counts.size(); ++i)
        merged.bucket_counts[i] += h.bucket_counts[i];
      merged.count += h.count;
      merged.sum += h.sum;
      // Slowest traced observation across the fleet wins the exemplar.
      if (h.exemplar_trace_id != 0 &&
          (merged.exemplar_trace_id == 0 ||
           h.exemplar_value > merged.exemplar_value)) {
        merged.exemplar_value = h.exemplar_value;
        merged.exemplar_trace_id = h.exemplar_trace_id;
      }
    }
  }

  result.merged.counters.reserve(counters.size());
  for (auto& [key, c] : counters)
    result.merged.counters.push_back(std::move(c));
  result.merged.gauges.reserve(gauges.size());
  for (auto& [key, g] : gauges) result.merged.gauges.push_back(std::move(g));
  result.merged.histograms.reserve(hists.size());
  for (auto& [key, h] : hists)
    result.merged.histograms.push_back(std::move(h));
  return result;
}

// ---------------------------------------------------------------------------
// Chrome trace parsing + stitching
// ---------------------------------------------------------------------------

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

  bool peek_is(char c) {
    skip_ws();
    return p_ < end_ && *p_ == c;
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
      ++p_;
      if (peek_is('}')) {
        ok = consume('}');
      } else {
        while (true) {
          std::string key;
          if (!parse_string(key) || !consume(':') ||
              !parse_value_raw(nullptr))
            return false;
          if (consume(',')) continue;
          ok = consume('}');
          break;
        }
      }
    } else if (*p_ == '[') {
      ++p_;
      if (peek_is(']')) {
        ok = consume(']');
      } else {
        while (true) {
          if (!parse_value_raw(nullptr)) return false;
          if (consume(',')) continue;
          ok = consume(']');
          break;
        }
      }
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
  if (!scanner.consume('{')) return false;
  if (scanner.peek_is('}')) return scanner.consume('}');
  while (true) {
    std::string key;
    if (!scanner.parse_string(key) || !scanner.consume(':')) return false;
    bool ok = true;
    if (key == "name") {
      ok = scanner.parse_string(event.name);
    } else if (key == "cat") {
      ok = scanner.parse_string(event.cat);
    } else if (key == "ph") {
      ok = scanner.parse_string(event.ph);
    } else if (key == "s") {
      ok = scanner.parse_string(event.scope);
    } else if (key == "pid") {
      ok = scanner.parse_int(event.pid);
    } else if (key == "tid") {
      ok = scanner.parse_int(event.tid);
    } else if (key == "ts") {
      ok = scanner.parse_int(event.ts);
    } else if (key == "dur") {
      ok = scanner.parse_int(event.dur);
      event.has_dur = true;
    } else if (key == "args") {
      if (!scanner.consume('{')) return false;
      if (scanner.peek_is('}')) {
        ok = scanner.consume('}');
      } else {
        while (true) {
          std::string arg_key, raw;
          if (!scanner.parse_string(arg_key) || !scanner.consume(':') ||
              !scanner.parse_value_raw(&raw))
            return false;
          event.args.emplace_back(std::move(arg_key), std::move(raw));
          if (scanner.consume(',')) continue;
          ok = scanner.consume('}');
          break;
        }
      }
    } else {
      ok = scanner.parse_value_raw(nullptr);
    }
    if (!ok) return false;
    if (scanner.consume(',')) continue;
    return scanner.consume('}');
  }
}

void serialize_event_into(std::string& out, const ChromeTraceEvent& e) {
  out.append("\n{\"name\":\"");
  json_escape_into(out, e.name);
  out.append("\",\"ph\":\"");
  json_escape_into(out, e.ph);
  out.push_back('"');
  if (!e.cat.empty()) {
    out.append(",\"cat\":\"");
    json_escape_into(out, e.cat);
    out.push_back('"');
  }
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
  if (!scanner.consume('{')) return std::nullopt;
  if (scanner.peek_is('}')) {
    scanner.consume('}');
    return trace;
  }
  while (true) {
    std::string key;
    if (!scanner.parse_string(key) || !scanner.consume(':'))
      return std::nullopt;
    bool ok = true;
    if (key == "traceEvents") {
      if (!scanner.consume('[')) return std::nullopt;
      if (scanner.peek_is(']')) {
        ok = scanner.consume(']');
      } else {
        while (true) {
          ChromeTraceEvent event;
          if (!parse_trace_event(scanner, event)) return std::nullopt;
          trace.events.push_back(std::move(event));
          if (scanner.consume(',')) continue;
          ok = scanner.consume(']');
          break;
        }
      }
    } else if (key == "epochWallUs") {
      ok = scanner.parse_int(trace.epoch_wall_us);
    } else if (key == "droppedEvents") {
      std::int64_t dropped = 0;
      ok = scanner.parse_int(dropped);
      if (dropped > 0)
        trace.dropped_events = static_cast<std::uint64_t>(dropped);
    } else {
      ok = scanner.parse_value_raw(nullptr);
    }
    if (!ok) return std::nullopt;
    if (scanner.consume(',')) continue;
    if (!scanner.consume('}')) return std::nullopt;
    return trace;
  }
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
  std::int64_t base_wall_us = 0;
  for (const Parsed& p : parsed)
    if (p.trace.epoch_wall_us != 0 &&
        (base_wall_us == 0 || p.trace.epoch_wall_us < base_wall_us))
      base_wall_us = p.trace.epoch_wall_us;

  std::vector<ChromeTraceEvent> metadata;
  std::vector<ChromeTraceEvent> events;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const std::int64_t pid = static_cast<std::int64_t>(i) + 1;
    const std::int64_t shift =
        (parsed[i].trace.epoch_wall_us != 0 && base_wall_us != 0)
            ? parsed[i].trace.epoch_wall_us - base_wall_us
            : 0;
    ChromeTraceEvent label;
    label.name = "process_name";
    label.ph = "M";
    label.pid = pid;
    std::string quoted = "\"";
    json_escape_into(quoted, parsed[i].process);
    quoted.push_back('"');
    label.args.emplace_back("name", std::move(quoted));
    metadata.push_back(std::move(label));
    for (ChromeTraceEvent& e : parsed[i].trace.events) {
      e.pid = pid;
      e.ts += shift;
      events.push_back(std::move(e));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
                     return a.ts < b.ts;
                   });

  std::string out;
  out.reserve(128 + (metadata.size() + events.size()) * 160);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const ChromeTraceEvent& e : metadata) {
    if (!first) out.push_back(',');
    first = false;
    serialize_event_into(out, e);
  }
  for (const ChromeTraceEvent& e : events) {
    if (!first) out.push_back(',');
    first = false;
    serialize_event_into(out, e);
  }
  out.append("\n]}\n");
  result.events = metadata.size() + events.size();
  result.json = std::move(out);
  return result;
}

}  // namespace appclass::obs
