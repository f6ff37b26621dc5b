// Exporters for a RegistrySnapshot:
//   * to_table()      — aligned human-readable summary (CLI `--stats`)
//   * to_json()       — one JSON object (BENCH_*.json sidecars, tooling)
//   * to_prometheus() — Prometheus text exposition format 0.0.4
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace appclass::obs {

enum class ExportFormat { kTable, kJson, kPrometheus };

/// Appends `s` as the body of a JSON string: quote, backslash and every
/// control character escaped. The one escaper every obs JSON writer uses.
void json_escape_into(std::string& out, std::string_view s);

/// `s` as a JSON string literal: quoted, and escaped as above.
std::string json_quoted(std::string_view s);

/// `id` in lowercase hex without a prefix: the form trace, span and
/// exemplar ids take in every obs JSON writer.
std::string hex_id(std::uint64_t id);

/// A character of a Prometheus metric or label name, [a-zA-Z0-9_:]. The
/// writer also keeps a digit from leading a name; the parser does not.
bool is_prom_name_char(char c) noexcept;

std::string to_table(const RegistrySnapshot& snapshot);
std::string to_json(const RegistrySnapshot& snapshot);
std::string to_prometheus(const RegistrySnapshot& snapshot);

inline std::string export_as(const RegistrySnapshot& snapshot,
                             ExportFormat format) {
  switch (format) {
    case ExportFormat::kJson: return to_json(snapshot);
    case ExportFormat::kPrometheus: return to_prometheus(snapshot);
    case ExportFormat::kTable: break;
  }
  return to_table(snapshot);
}

}  // namespace appclass::obs
