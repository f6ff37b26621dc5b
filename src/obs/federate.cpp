#include "obs/federate.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>

#include "obs/export.hpp"

namespace appclass::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
    while (key_end < line.size() && is_prom_name_char(line[key_end])) ++key_end;
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
    while (pos < line.size() && is_prom_name_char(line[pos])) ++pos;
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

}  // namespace appclass::obs
