// Exporters for a RegistrySnapshot:
//   * to_table()      — aligned human-readable summary (CLI `--stats`)
//   * to_json()       — one JSON object (BENCH_*.json sidecars, tooling)
//   * to_prometheus() — Prometheus text exposition format 0.0.4
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace appclass::obs {

enum class ExportFormat { kTable, kJson, kPrometheus };

/// Appends `s` as the body of a JSON string: quote, backslash and every
/// control character escaped. The one escaper every obs JSON writer uses.
void json_escape_into(std::string& out, std::string_view s);

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
