#include "core/online.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::core {
namespace {

struct OnlineMetrics {
  obs::Histogram& observe_seconds = obs::stage_histogram("online_observe");
  obs::Counter& observed = obs::MetricsRegistry::global().counter(
      "appclass_online_observations_total");
  obs::Counter& skipped = obs::MetricsRegistry::global().counter(
      "appclass_online_skipped_total");
  obs::Counter& changes = obs::MetricsRegistry::global().counter(
      "appclass_online_behaviour_changes_total");
  obs::Counter& abstained = obs::MetricsRegistry::global().counter(
      "appclass_online_abstained_total");
};

OnlineMetrics& online_metrics() {
  static OnlineMetrics metrics;
  return metrics;
}

}  // namespace

obs::ModelHealthOptions make_health_options(std::size_t drift_window) {
  obs::ModelHealthOptions options;
  options.class_names.reserve(kClassCount);
  for (const std::string_view name : kClassNames)
    options.class_names.emplace_back(name);
  if (drift_window > 0) {
    options.drift.window = drift_window;
    options.drift.reference_window = 2 * drift_window;
  }
  return options;
}

OnlineClassifier::OnlineClassifier(const ClassificationPipeline& pipeline,
                                   OnlineOptions options)
    : pipeline_(pipeline), options_(options) {
  APPCLASS_EXPECTS(pipeline.trained());
  APPCLASS_EXPECTS(options.sampling_interval_s >= 1);
  APPCLASS_EXPECTS(options.window >= 1);
  APPCLASS_EXPECTS(options.stability >= 1);
  APPCLASS_EXPECTS(options.min_coverage >= 0.0 &&
                   options.min_coverage <= 1.0);
}

void OnlineClassifier::attach_health(obs::ModelHealth* health) noexcept {
  health_ = health;
  for (auto& [ip, node] : nodes_) node.health = {};
}

void OnlineClassifier::refresh_window(NodeState& node, metrics::SimTime now) {
  const metrics::SimTime horizon =
      static_cast<metrics::SimTime>(options_.window - 1) *
      options_.sampling_interval_s;
  while (!node.window.empty() && now - node.window.front().first > horizon)
    node.window.pop_front();

  // Expected samples: one per grid point inside the horizon, bounded by
  // how long the node has been observed at all (a young node is not
  // penalized for samples that predate it).
  const metrics::SimTime observed_span =
      std::clamp<metrics::SimTime>(now - node.first_time, 0, horizon);
  const std::size_t expected = static_cast<std::size_t>(
      observed_span / options_.sampling_interval_s + 1);
  node.coverage = static_cast<double>(node.window.size()) /
                  static_cast<double>(std::max<std::size_t>(expected, 1));
}

std::optional<ApplicationClass> OnlineClassifier::observe(
    const metrics::Snapshot& snapshot) {
  OnlineMetrics& om = online_metrics();
  if (!on_grid(snapshot)) {
    om.skipped.inc();
    return std::nullopt;
  }

  obs::TraceSpan span("online_observe", &om.observe_seconds);
  // The health layer needs the evidence; the label is the same either way.
  pipeline_.begin_snapshot_batch(batch_, 1, /*detailed=*/health_ != nullptr);
  pipeline_.classify_snapshot_into(snapshot, batch_, 0,
                                   *pipeline_.acquire_scratch());
  ingest(snapshot, batch_, 0);
  return batch_.label(0);
}

void OnlineClassifier::ingest(const metrics::Snapshot& snapshot,
                              ApplicationClass label) {
  ingest_impl(snapshot, label, nullptr);
}

void OnlineClassifier::ingest(const metrics::Snapshot& snapshot,
                              const SnapshotClassification& detail) {
  ingest_impl(snapshot, detail.label, &detail);
}

void OnlineClassifier::ingest(const metrics::Snapshot& snapshot,
                              const SnapshotBatch& batch, std::size_t i) {
  ingest_impl(snapshot, batch.label(i),
              batch.detailed() ? &batch.detail(i) : nullptr);
}

OnlineClassifier::NodeState& OnlineClassifier::node_state(
    const std::string& node_ip) {
  if (!node_index_.empty()) {
    const std::size_t h = std::hash<std::string>{}(node_ip);
    const std::size_t mask = node_index_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const NodeIndexSlot& slot = node_index_[s];
      if (slot.key == nullptr) break;
      if (slot.hash == h && *slot.key == node_ip) return *slot.state;
    }
  }
  // First sighting of this node (or empty index): insert into the
  // ordered map and refresh the flat index over it.
  NodeState& node = nodes_.try_emplace(node_ip).first->second;
  rebuild_node_index();
  return node;
}

void OnlineClassifier::rebuild_node_index() {
  std::size_t cap = 8;
  while (cap < nodes_.size() * 2) cap <<= 1;
  node_index_.assign(cap, NodeIndexSlot{});
  const std::size_t mask = cap - 1;
  for (auto& [ip, state] : nodes_) {
    const std::size_t h = std::hash<std::string>{}(ip);
    std::size_t s = h & mask;
    while (node_index_[s].key != nullptr) s = (s + 1) & mask;
    node_index_[s] = NodeIndexSlot{h, &ip, &state};
  }
}

void OnlineClassifier::ingest_impl(const metrics::Snapshot& snapshot,
                                   ApplicationClass label,
                                   const SnapshotClassification* detail) {
  APPCLASS_EXPECTS(on_grid(snapshot));
  OnlineMetrics& om = online_metrics();
  om.observed.inc();
  ++classified_;

  NodeState& node = node_state(snapshot.node_ip);
  // +1: ingest pushes first and evicts after, so the ring momentarily
  // holds window + 1 entries without growing.
  node.window.ensure_capacity(options_.window + 1);
  if (node.window.empty() && !node.stable_class)
    node.first_time = snapshot.time;
  node.window.push_back({snapshot.time, label});
  while (node.window.size() > options_.window) node.window.pop_front();
  refresh_window(node, snapshot.time);

  const bool abstain =
      options_.min_coverage > 0.0 && node.coverage < options_.min_coverage;

  // Health evidence (abstained observations included — they enter the
  // window too): strictly observational, never feeds back into the label
  // or window state below.
  if (health_ != nullptr) {
    if (!node.health) node.health = health_->resolve(snapshot.node_ip);
    obs::HealthSample sample;
    sample.node_ip = snapshot.node_ip;
    sample.class_index = index_of(label);
    sample.coverage = node.coverage;
    sample.degraded = abstain;
    sample.abstained = abstain;
    if (detail != nullptr) {
      sample.confidence = detail->confidence;
      sample.vote_margin = detail->vote_margin;
      sample.novel = pipeline_.novelty_threshold() > 0.0 &&
                     detail->novelty > pipeline_.novelty_threshold();
      sample.projected = detail->projected;
    }
    health_->record(sample, node.health);
  }

  // Coverage-aware abstention: with too few valid samples in the window
  // (mid-blackout or right after one), hold the last stable class rather
  // than voting on fragments; the candidate streak resets so a change can
  // only fire from contiguous healthy evidence.
  if (abstain) {
    ++abstained_;
    om.abstained.inc();
    node.candidate_streak = 0;
    APPCLASS_LOG_DEBUG("online.abstain", {"node", snapshot.node_ip},
                       {"time", snapshot.time},
                       {"coverage", node.coverage},
                       {"window", node.window.size()});
    return;
  }

  // Debounced dominant-class tracking: the rolling majority must differ
  // from the stable class for `stability` consecutive samples to fire.
  // The window maintains its class counts incrementally, so this is an
  // argmax over kClassCount counters rather than a copy-and-recount of
  // the whole window per ingest (the old hot-path cost).
  const ApplicationClass dominant = node.window.dominant();
  if (!node.stable_class) {
    node.stable_class = dominant;
  } else if (dominant != *node.stable_class) {
    if (node.candidate_streak > 0 && node.candidate == dominant) {
      ++node.candidate_streak;
    } else {
      node.candidate = dominant;
      node.candidate_streak = 1;
    }
    if (node.candidate_streak >= options_.stability) {
      const BehaviourChange change{snapshot.node_ip, snapshot.time,
                                   *node.stable_class, dominant};
      node.stable_class = dominant;
      node.candidate_streak = 0;
      om.changes.inc();
      APPCLASS_LOG_DEBUG("online.behaviour_change", {"node", change.node_ip},
                         {"time", change.time},
                         {"from", to_string(change.from)},
                         {"to", to_string(change.to)});
      if (callback_) callback_(change);
    }
  } else {
    node.candidate_streak = 0;
  }
}

OnlineStateImage OnlineClassifier::export_state() const {
  OnlineStateImage image;
  image.classified = classified_;
  image.abstained = abstained_;
  image.nodes.reserve(nodes_.size());
  for (const auto& [ip, node] : nodes_) {
    OnlineNodeImage n;
    n.node_ip = ip;
    n.window.reserve(node.window.size());
    for (std::size_t i = 0; i < node.window.size(); ++i)
      n.window.push_back(node.window.at(i));
    n.stable_class = node.stable_class;
    n.candidate = node.candidate;
    n.candidate_streak = node.candidate_streak;
    n.first_time = node.first_time;
    n.coverage = node.coverage;
    image.nodes.push_back(std::move(n));
  }
  return image;
}

void OnlineClassifier::import_state(const OnlineStateImage& image) {
  classified_ = image.classified;
  abstained_ = image.abstained;
  nodes_.clear();
  for (const auto& n : image.nodes) {
    NodeState node;
    node.window.ensure_capacity(
        std::max<std::size_t>(options_.window + 1, n.window.size()));
    for (const auto& entry : n.window) node.window.push_back(entry);
    node.stable_class = n.stable_class;
    node.candidate = n.candidate;
    node.candidate_streak = n.candidate_streak;
    node.first_time = n.first_time;
    node.coverage = n.coverage;
    nodes_.emplace(n.node_ip, std::move(node));
  }
  rebuild_node_index();
}

std::optional<ClassComposition> OnlineClassifier::composition(
    const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end() || it->second.window.empty()) return std::nullopt;
  const LabelWindow& window = it->second.window;
  std::vector<ApplicationClass> labels;
  labels.reserve(window.size());
  for (std::size_t i = 0; i < window.size(); ++i)
    labels.push_back(window.at(i).second);
  return ClassComposition(labels);
}

std::optional<ApplicationClass> OnlineClassifier::current_class(
    const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.stable_class;
}

std::optional<double> OnlineClassifier::coverage(
    const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end()) return std::nullopt;
  return it->second.coverage;
}

bool OnlineClassifier::degraded(const std::string& node_ip) const {
  const auto it = nodes_.find(node_ip);
  if (it == nodes_.end()) return false;
  return options_.min_coverage > 0.0 &&
         it->second.coverage < options_.min_coverage;
}

}  // namespace appclass::core
