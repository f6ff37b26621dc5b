// k-Nearest-Neighbor classifier (paper section 4.2.3).
//
// Exact k-NN with majority vote over the k geometrically closest
// training points; ties break toward the class of the nearer neighbors
// (summed inverse ranks), matching the "odd k" convention the paper uses
// to avoid most ties in the first place (k = 3).
//
// The classifier is a thin policy layer over the exact k-d tree index in
// engine/knn_kernel.hpp: training builds the tree, and
// `query(points, QueryOptions)` answers every question (labels, vote
// shares, neighbor indices, novelty distances) from one index search per
// point, bit-identical to a brute-force scan. Everything beyond the
// label is derived from that search's hits in one place (the private
// evidence() helper). The pipeline classifies through the index and
// evidence() directly, one snapshot at a time; query() serves
// diagnostics, tests and the standalone classifier.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/class_label.hpp"
#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"

namespace appclass::core {

/// The distance metric now lives with the kernel; the alias keeps every
/// existing `core::DistanceMetric` spelling valid.
using DistanceMetric = engine::DistanceMetric;

struct KnnOptions {
  std::size_t k = 3;
  DistanceMetric metric = DistanceMetric::kEuclidean;
};

/// What a query should materialize besides the labels. Each extra output
/// is filled only when requested, so the hot path (labels only) never
/// pays for diagnostics.
struct QueryOptions {
  /// Winning-class vote share per query point (the cheap per-snapshot
  /// confidence; 1.0 = unanimous neighbourhood).
  bool vote_shares = false;
  /// The k nearest training indices per query point, nearest first.
  bool neighbors = false;
  /// The novelty score per query point, as defined at
  /// PipelineOptions::novelty_threshold.
  bool novelty = false;
};

/// Batch answer: index i of every filled vector describes query row i.
struct QueryResult {
  std::size_t neighbors_per_query = 0;  ///< min(k, training size) if requested
  std::vector<ApplicationClass> labels;  ///< always filled
  std::vector<double> vote_shares;       ///< iff QueryOptions::vote_shares
  /// Flattened (query rows) x neighbors_per_query, nearest first
  /// (iff QueryOptions::neighbors).
  std::vector<std::size_t> neighbor_indices;
  std::vector<double> novelty;           ///< iff QueryOptions::novelty

  /// Neighbor `rank` (0 = nearest) of query point `query`.
  std::size_t neighbor(std::size_t query, std::size_t rank) const {
    return neighbor_indices[query * neighbors_per_query + rank];
  }
};

class KnnClassifier {
 public:
  explicit KnnClassifier(KnnOptions options = {});

  /// Stores the training set (row i of `points` has label `labels[i]`)
  /// and builds the k-d tree index over it.
  void train(linalg::Matrix points, std::vector<ApplicationClass> labels);

  bool trained() const noexcept { return !labels_.empty(); }
  std::size_t training_size() const noexcept { return labels_.size(); }
  std::size_t dimension() const;
  std::size_t k() const noexcept { return options_.k; }
  const KnnOptions& options() const noexcept { return options_; }

  /// THE query entry point: answers every row of `points` in one pass,
  /// filling exactly the outputs `options` requests.
  QueryResult query(const linalg::Matrix& points,
                    const QueryOptions& options = {}) const;

  /// Single-point convenience: every output vector has one entry.
  QueryResult query(std::span<const double> point,
                    const QueryOptions& options = {}) const;

  const linalg::Matrix& training_points() const noexcept { return points_; }
  std::span<const ApplicationClass> training_labels() const noexcept {
    return labels_;
  }

  /// The underlying k-d tree index (bench and diagnostics).
  const engine::BlockedKnnIndex& index() const noexcept { return index_; }

 private:
  friend class ClassificationPipeline;

  /// What one query's hits say beyond the neighbour list. The only place
  /// the vote (label, share, margin) and the novelty score are derived:
  /// query() and the pipeline's per-snapshot routine both read them here.
  struct Evidence {
    engine::BlockedKnnIndex::Vote vote;
    /// Distance to the nearest training point in the vote metric.
    double novelty = 0.0;
  };
  /// `hits` as returned by index().top_k (ascending, non-empty).
  Evidence evidence(std::span<const engine::BlockedKnnIndex::Hit> hits) const;

  KnnOptions options_;
  linalg::Matrix points_;  // row-major original (accessors, serialization)
  std::vector<ApplicationClass> labels_;
  engine::BlockedKnnIndex index_;
};

}  // namespace appclass::core
