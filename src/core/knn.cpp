#include "core/knn.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace appclass::core {

KnnClassifier::KnnClassifier(KnnOptions options) : options_(options) {
  APPCLASS_EXPECTS(options_.k >= 1);
  APPCLASS_EXPECTS(options_.k % 2 == 1);  // odd k, per the paper
}

void KnnClassifier::train(linalg::Matrix points,
                          std::vector<ApplicationClass> labels) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= options_.k);
  points_ = std::move(points);
  labels_ = std::move(labels);
  index_.build(points_, labels_, options_.k, options_.metric);
}

std::size_t KnnClassifier::dimension() const {
  APPCLASS_EXPECTS(trained());
  return points_.cols();
}

KnnClassifier::Evidence KnnClassifier::evidence(
    std::span<const engine::BlockedKnnIndex::Hit> hits) const {
  Evidence out;
  out.vote = index_.vote(hits);
  // Hits ascend by metric-space distance, so hits[0] is the nearest
  // training point: squared L2 under Euclidean, the L1 sum under
  // Manhattan.
  out.novelty = options_.metric == DistanceMetric::kEuclidean
                    ? std::sqrt(hits[0].distance)
                    : hits[0].distance;
  return out;
}

QueryResult KnnClassifier::query(const linalg::Matrix& points,
                                 const QueryOptions& options) const {
  APPCLASS_EXPECTS(trained());
  APPCLASS_EXPECTS(points.cols() == points_.cols());
  const std::size_t count = points.rows();
  QueryResult out;
  out.labels.resize(count);
  if (options.vote_shares) out.vote_shares.resize(count);
  if (options.neighbors) {
    out.neighbors_per_query = std::min(options_.k, labels_.size());
    out.neighbor_indices.resize(count * out.neighbors_per_query);
  }
  if (options.novelty) out.novelty.resize(count);

  // Per-thread, so single-point queries in a loop reuse warm storage.
  thread_local engine::BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < count; ++r) {
    const auto hits = index_.top_k(points.row(r), scratch);
    const Evidence ev = evidence(hits);
    out.labels[r] = ev.vote.label;
    if (options.vote_shares) out.vote_shares[r] = ev.vote.share;
    if (options.neighbors) {
      for (std::size_t j = 0; j < out.neighbors_per_query; ++j)
        out.neighbor_indices[r * out.neighbors_per_query + j] =
            hits[j].index;
    }
    if (options.novelty) out.novelty[r] = ev.novelty;
  }
  return out;
}

QueryResult KnnClassifier::query(std::span<const double> point,
                                 const QueryOptions& options) const {
  return query(linalg::Matrix::from_rows(1, point.size(),
                                         {point.begin(), point.end()}),
               options);
}

}  // namespace appclass::core
