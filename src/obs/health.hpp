// Model-health observability: how well the classifier is doing, not just
// how fast.
//
// ModelHealth aggregates the per-snapshot evidence the online
// classification path already produces — winning-class vote share,
// vote margin, novelty distance, coverage/abstention state, PCA-space
// coordinates — into:
//
//   * per-class confidence and vote-margin histograms plus scorecard
//     summaries (`/classes`),
//   * per-node classification scorecards with bounded cardinality —
//     the first `top_nodes` distinct nodes keep their own card, the
//     rest aggregate into an `other` bucket (`/nodes`),
//   * an online drift detector over the projected feature stream
//     (`/drift`, `appclass_drift_score{component=}`), with an
//     `on_drift` callback hook a retraining loop can subscribe to,
//   * abstention / degraded / novel-fraction gauges, and a one-line
//     summary for periodic stats dumps.
//
// The layer is strictly observational: it never feeds back into
// classification, so output is bit-identical with it attached or not.
// record() and every reader are internally synchronized — scrape-route
// handlers may run on the server thread while a fleet drain records.
//
// A node's card is decided once, at its first sighting: resolve() runs
// the first-K admission and hands back a NodeHandle, and the hot
// record(sample, handle) takes one mutex and does no lookup. The online
// classifier keeps each node's handle next to its window.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cardinality.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {

struct ModelHealthOptions {
  /// Class names in label-index order; fixes the class count. Required.
  std::vector<std::string> class_names;
  /// Per-node scorecards kept exactly; further nodes fold into "other".
  std::size_t top_nodes = 16;
  /// Rolling window (samples) behind the novel-fraction gauge.
  std::size_t novel_window = 256;
  /// False skips the drift feed entirely (bench baseline / cost opt-out);
  /// everything else about the aggregator is unchanged.
  bool drift_enabled = true;
  DriftOptions drift{};
};

/// One classified (or abstained) snapshot's health evidence. Fields the
/// caller cannot cheaply produce stay NaN/empty and are skipped.
struct HealthSample {
  std::string_view node_ip;
  std::size_t class_index = 0;
  /// Winning-class vote share in (0, 1]; NaN = unknown (label-only feed).
  double confidence = std::numeric_limits<double>::quiet_NaN();
  /// Winner-minus-runner-up vote share in [0, 1]; NaN = unknown.
  double vote_margin = std::numeric_limits<double>::quiet_NaN();
  /// True when the snapshot's novelty distance exceeded the pipeline's
  /// threshold (an open-environment behaviour unlike any trained class).
  bool novel = false;
  /// Window coverage of the node at this sample, in (0, 1].
  double coverage = 1.0;
  /// True while the node's classifier is abstaining (coverage too low).
  bool degraded = false;
  /// True when this specific observation was absorbed without voting.
  bool abstained = false;
  /// PCA-space coordinates; empty skips the drift feed.
  std::span<const double> projected;
};

class ModelHealth {
  struct NodeStats;

 public:
  explicit ModelHealth(ModelHealthOptions options);

  /// A node's scorecard as resolve() decided it: the node's own card
  /// while it is admitted, the shared "other" card when it overflowed.
  /// Valid for the aggregator's lifetime; default-constructed = not yet
  /// resolved.
  class NodeHandle {
   public:
    NodeHandle() = default;
    explicit operator bool() const noexcept { return stats_ != nullptr; }

   private:
    friend class ModelHealth;
    explicit NodeHandle(NodeStats* stats) noexcept : stats_(stats) {}
    NodeStats* stats_ = nullptr;
  };

  /// Finds or admits `node_ip`'s card (first-K order; an overflowed node
  /// is counted once in /nodes' "overflowed"). Cold: a node's first
  /// sighting allocates its card. Thread-safe.
  NodeHandle resolve(std::string_view node_ip);

  /// Feeds one sample: record(sample, resolve(sample.node_ip)).
  void record(const HealthSample& sample);

  /// Feeds one sample into the card `node`, which this aggregator's
  /// resolve() returned; sample.node_ip is not read. One mutex, no
  /// lookup, and no allocation once the drift reference is frozen.
  /// Thread-safe.
  void record(const HealthSample& sample, NodeHandle node);

  /// Fires once per drift rising edge (component index, PSI score); the
  /// hook a retraining loop subscribes to. Set before streaming.
  void on_drift(DriftDetector::DriftCallback callback);

  /// Fixes the drift reference explicitly (samples x components,
  /// row-major) instead of self-freezing from the first window.
  void set_drift_reference(std::span<const double> row_major,
                           std::size_t components);

  // -- Scrape-route scorecards (all thread-safe, all valid JSON) --------
  std::string classes_json() const;  ///< per-class scorecards (/classes)
  std::string nodes_json() const;    ///< per-node scorecards (/nodes)
  std::string drift_json() const;    ///< drift detector state (/drift)

  /// One-line scorecard summary for --stats-every periodic dumps.
  std::string summary_line() const;

  /// Liveness verdict for /healthz: unhealthy while any tracked node is
  /// degraded (abstaining on thin coverage). `reason_json` is a JSON
  /// body either way.
  struct Status {
    bool healthy = true;
    std::size_t degraded_nodes = 0;
    std::string reason_json;
  };
  Status status() const;

  std::uint64_t samples() const;
  std::uint64_t abstained() const;
  /// Per-class sample counts in class-index order (the order of
  /// options.class_names) — the distilled numbers a shard worker exposes
  /// for the coordinator's merged /classes view.
  std::vector<std::uint64_t> class_sample_counts() const;
  std::uint64_t drift_events() const;
  /// Fraction of the last `novel_window` samples flagged novel.
  double novel_fraction() const;

  /// Process-global instance hook: lets decoupled observers (the CLI's
  /// periodic stats ticker) find the serving health aggregator without
  /// plumbing. Set to nullptr on teardown; not owned.
  static ModelHealth* instance() noexcept;
  static void set_instance(ModelHealth* health) noexcept;

 private:
  struct ClassStats {
    std::uint64_t samples = 0;
    double confidence_sum = 0.0;
    std::uint64_t confidence_count = 0;
    double margin_sum = 0.0;
    std::uint64_t margin_count = 0;
    std::uint64_t low_confidence = 0;  ///< vote share <= 0.5
    Counter* samples_total = nullptr;
    Histogram* confidence = nullptr;
    Histogram* margin = nullptr;
  };

  struct NodeStats {
    std::uint64_t samples = 0;
    std::uint64_t abstained = 0;
    std::uint64_t novel = 0;
    std::vector<std::uint64_t> per_class;
    double coverage = 1.0;
    bool degraded = false;
    std::size_t last_class = 0;
    Gauge* coverage_gauge = nullptr;
  };

  NodeStats& node_stats_locked(std::string_view node_ip);
  void append_node_json(std::ostream& out, const std::string& name,
                        const NodeStats& node) const;

  const ModelHealthOptions options_;
  mutable std::mutex mutex_;
  std::vector<ClassStats> classes_;
  BoundedLabelSet node_labels_;
  std::map<std::string, NodeStats, std::less<>> nodes_;
  NodeStats other_;
  DriftDetector drift_;
  std::uint64_t samples_ = 0;
  std::uint64_t abstained_ = 0;
  /// Cards (the "other" card included) whose last sample was degraded.
  std::size_t degraded_nodes_ = 0;
  /// Rolling novelty ring behind the novel-fraction gauge.
  std::vector<bool> novel_ring_;
  std::size_t novel_head_ = 0;
  std::size_t novel_size_ = 0;
  std::size_t novel_count_ = 0;
  Counter& novel_total_;
  Counter& abstained_total_;
  Gauge& novel_fraction_gauge_;
  Gauge& degraded_nodes_gauge_;
  Gauge& tracked_nodes_gauge_;
};

}  // namespace appclass::obs
