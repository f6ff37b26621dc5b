// Fleet metrics federation.
//
// A sharded fleet leaves every worker's registry an island: each worker
// exports Prometheus 0.0.4 text at /metrics, but nothing aggregates
// them. This module is the coordinator-side half of the metrics plane
// (the trace half, stitch_chrome_traces(), lives in obs/chrome_trace.hpp
// with the rest of the Chrome trace codec):
//
//   * parse_prometheus() re-ingests the exact dialect obs/export.cpp
//     emits (# TYPE lines; counters as integers; gauges as %.9g;
//     histograms as cumulative `_bucket{le=...}` series ending in +Inf,
//     plus `_sum`/`_count`) back into a RegistrySnapshot. The round trip
//     export -> parse -> export is a fixed point, which is what makes
//     federation composable: a Prometheus server scraping the
//     coordinator's /fleet/metrics sees a conformant single registry.
//
//   * federate_snapshots() merges per-worker snapshots: counters sum,
//     histograms with identical bounds merge bucket-wise (+Inf bucket
//     included), and gauges — which are not summable — gain a
//     `worker=<id>` label, guarded by a BoundedLabelSet so a churning
//     fleet cannot explode series cardinality.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cardinality.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {

/// Parses Prometheus 0.0.4 text exposition (the dialect to_prometheus()
/// writes) into a snapshot sorted by the registry's (name, labels)
/// contract. Returns nullopt on any malformed line: unknown family,
/// bad label syntax, non-numeric value, non-cumulative or +Inf-less
/// histogram buckets. `# HELP` and other comments are ignored;
/// `# TYPE summary`/`untyped` families are rejected (unrepresentable).
std::optional<RegistrySnapshot> parse_prometheus(std::string_view text);

/// One worker's contribution to a federated view.
struct FederationPart {
  /// Label value for this worker's gauges ("0", "1", ...). Empty = leave
  /// gauges unlabeled, which makes single-part federation the identity.
  std::string worker;
  RegistrySnapshot snapshot;
};

struct FederationResult {
  RegistrySnapshot merged;
  /// Histogram series whose bucket bounds disagreed across parts and
  /// were dropped from the merge (schema drift between worker builds).
  std::size_t dropped_series = 0;
};

/// Merges per-worker snapshots into one fleet snapshot: counters sum by
/// (name, labels); histograms with identical bounds sum bucket-wise and
/// keep the slowest exemplar; gauges gain a `worker` label (admitted
/// through `worker_labels` when provided, so fleet churn collapses into
/// the overflow bucket instead of minting unbounded series). Colliding
/// gauge series (e.g. two overflow workers) keep the last value.
FederationResult federate_snapshots(const std::vector<FederationPart>& parts,
                                    BoundedLabelSet* worker_labels = nullptr);

}  // namespace appclass::obs
