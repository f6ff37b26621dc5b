#include "engine/knn_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "engine/knn_block_tiles.hpp"

namespace appclass::engine {
namespace {

/// Relative slack applied to the prune bound: computed distances carry a
/// handful of ulps of rounding, the bound is slackened by ~1e-6 — six
/// orders of magnitude more than needed, still pruning everything a real
/// novelty outlier should prune.
constexpr double kPruneSlack = 0.999999;

}  // namespace

void BlockedKnnIndex::build(const linalg::Matrix& points,
                            std::vector<core::ApplicationClass> labels,
                            std::size_t k, DistanceMetric metric) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= 1);
  APPCLASS_EXPECTS(points.cols() >= 1);
  const std::size_t n = points.rows();
  dims_ = points.cols();
  k_ = k;
  metric_ = metric;
  labels_ = std::move(labels);
  padded_ = (n + kTile - 1) / kTile * kTile;

  // Feature-major copy: feature j of point i at features_[j * padded_ + i].
  features_.assign(dims_ * padded_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = points.row(i);
    for (std::size_t j = 0; j < dims_; ++j)
      features_[j * padded_ + i] = row[j];
  }

  // Per-point norms (ascending-feature accumulation, like the distances)
  // and per-tile unsquared bounds for the prune test.
  sq_norms_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    const auto row = points.row(i);
    if (metric_ == DistanceMetric::kManhattan) {
      for (std::size_t j = 0; j < dims_; ++j) acc += std::abs(row[j]);
    } else {
      for (std::size_t j = 0; j < dims_; ++j) acc += row[j] * row[j];
    }
    sq_norms_[i] = acc;
  }
  const std::size_t tiles = padded_ / kTile;
  tile_min_norm_.assign(tiles, std::numeric_limits<double>::infinity());
  tile_max_norm_.assign(tiles, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double norm = metric_ == DistanceMetric::kManhattan
                            ? sq_norms_[i]
                            : std::sqrt(sq_norms_[i]);
    const std::size_t t = i / kTile;
    tile_min_norm_[t] = std::min(tile_min_norm_[t], norm);
    tile_max_norm_[t] = std::max(tile_max_norm_[t], norm);
  }
}

double BlockedKnnIndex::query_norm(const double* q,
                                   std::size_t qstride) const {
  double acc = 0.0;
  if (metric_ == DistanceMetric::kManhattan) {
    for (std::size_t j = 0; j < dims_; ++j) acc += std::abs(q[j * qstride]);
    return acc;
  }
  for (std::size_t j = 0; j < dims_; ++j) {
    const double v = q[j * qstride];
    acc += v * v;
  }
  return std::sqrt(acc);
}

double BlockedKnnIndex::tile_lower_bound(std::size_t t, double qnorm) const {
  // Reverse triangle inequality: d(q, x) >= |norm(q) - norm(x)| for any
  // norm-induced metric. Zero (never prunes) when qnorm falls inside the
  // tile's norm range.
  double delta = 0.0;
  if (qnorm < tile_min_norm_[t])
    delta = tile_min_norm_[t] - qnorm;
  else if (qnorm > tile_max_norm_[t])
    delta = qnorm - tile_max_norm_[t];
  else
    return 0.0;
  const double bound =
      metric_ == DistanceMetric::kManhattan ? delta : delta * delta;
  return bound * kPruneSlack;
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k(
    std::span<const double> q, Scratch& scratch) const {
  APPCLASS_EXPECTS(q.size() == dims_);
  return top_k_block(q.data(), 1, scratch);
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k(
    const QueryBlock& block, std::size_t i, Scratch& scratch) const {
  APPCLASS_EXPECTS(block.dims() == dims_);
  APPCLASS_EXPECTS(i < block.count());
  return top_k_block(block.point(i), block.stride(), scratch);
}

void BlockedKnnIndex::tile_distances(const double* q, std::size_t qstride,
                                     std::size_t t0, std::size_t width,
                                     std::vector<double>& acc) const {
  // Each point's accumulator sees features in ascending order — the
  // exact summation order of linalg::squared_distance /
  // manhattan_distance; the query's stride only changes where feature j
  // is loaded from. The first feature stores instead of adding into a
  // zeroed array (every per-feature term is non-negative, so 0 + term ==
  // term bit for bit), and the per-feature sweeps run through the
  // vectorized blocktiles primitives.
  double* const a = acc.data();
  if (metric_ == DistanceMetric::kManhattan) {
    if (dims_ == 2) {
      blocktiles::l1_pair(features_.data() + t0, features_.data() + padded_ + t0,
                          q[0], q[qstride], a, width);
      return;
    }
    blocktiles::l1_first(features_.data() + t0, q[0], a, width);
    for (std::size_t j = 1; j < dims_; ++j)
      blocktiles::l1_accumulate(features_.data() + j * padded_ + t0,
                                q[j * qstride], a, width);
    return;
  }
  if (dims_ == 2) {
    blocktiles::sq_pair(features_.data() + t0, features_.data() + padded_ + t0,
                        q[0], q[qstride], a, width);
    return;
  }
  blocktiles::sq_first(features_.data() + t0, q[0], a, width);
  for (std::size_t j = 1; j < dims_; ++j)
    blocktiles::sq_accumulate(features_.data() + j * padded_ + t0,
                              q[j * qstride], a, width);
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k_block(
    const double* q, std::size_t qstride, Scratch& scratch) const {
  APPCLASS_EXPECTS(built());
  const std::size_t n = labels_.size();
  const std::size_t k = std::min(k_, n);
  constexpr std::size_t kChunk = blocktiles::kMinChunk;
  scratch.acc.resize(kTile);
  scratch.chunk_mins.resize(kTile / kChunk);
  scratch.hits.resize(k);
  Hit* const hits = scratch.hits.data();
  std::size_t count = 0;
  // The norm (and its sqrt) only feeds the cross-tile prune test, which
  // a single-tile index never reaches — common for this domain's small
  // labeled training pools.
  const double qnorm = n > kTile ? query_norm(q, qstride) : 0.0;

  // Lexicographic (distance, index) insertion, valid under ANY candidate
  // processing order. The reference ascending scan keeps exactly the k
  // lexicographically smallest (distance, index) pairs — its strict '<'
  // on distance means a later tie never displaces an earlier index — so
  // maintaining that set directly frees the loop below to visit chunks
  // out of order and still return bit-identical hits in the same order.
  const auto consider = [&](double d, std::size_t index) {
    const auto idx = static_cast<std::uint32_t>(index);
    if (count == k && (d > hits[k - 1].distance ||
                       (d == hits[k - 1].distance && idx > hits[k - 1].index)))
      return;
    std::size_t pos = count < k ? count : k - 1;
    while (pos > 0 && (d < hits[pos - 1].distance ||
                       (d == hits[pos - 1].distance &&
                        idx < hits[pos - 1].index))) {
      hits[pos] = hits[pos - 1];
      --pos;
    }
    hits[pos] = Hit{d, idx};
    if (count < k) ++count;
  };

  for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
    const std::size_t width = std::min(kTile, n - t0);
    if (count == k &&
        tile_lower_bound(t0 / kTile, qnorm) > hits[k - 1].distance) {
      ++scratch.pruned_tiles;
      continue;
    }
    tile_distances(q, qstride, t0, width, scratch.acc);
    const double* const a = scratch.acc.data();
    const std::size_t blocks = width / kChunk;
    if (blocks > 0) {
      // Per-8 minima come from the vectorized sweep TU, near-free next
      // to the distance pass. Seeding from the most promising chunk
      // usually collapses the k-th distance to its final value at once,
      // so the single compare below then discards almost every other
      // chunk wholesale — unlike an ascending scan, where a query near
      // a late cluster drags a loose k-th bound across all the early
      // chunks. (A scalar chunk filter in ascending order was measured
      // and lost to the plain scan.)
      double* const mins = scratch.chunk_mins.data();
      blocktiles::chunk_mins(a, width, mins);
      std::size_t best = 0;
      for (std::size_t b = 1; b < blocks; ++b)
        if (mins[b] < mins[best]) best = b;
      const std::size_t b0 = best * kChunk;
      for (std::size_t i = b0; i < b0 + kChunk; ++i) consider(a[i], t0 + i);
      for (std::size_t b = 0; b < blocks; ++b) {
        if (b == best) continue;
        // Strict '>': a chunk whose min ties the k-th distance may hold
        // an equal-distance lower index, which the set does admit.
        if (count == k && mins[b] > hits[k - 1].distance) continue;
        const std::size_t i0 = b * kChunk;
        for (std::size_t i = i0; i < i0 + kChunk; ++i) consider(a[i], t0 + i);
      }
    }
    for (std::size_t i = blocks * kChunk; i < width; ++i)
      consider(a[i], t0 + i);
  }
  return {hits, count};
}

BlockedKnnIndex::Vote BlockedKnnIndex::vote(std::span<const Hit> hits) const {
  APPCLASS_EXPECTS(!hits.empty());
  // Majority vote; ties resolved by summed inverse rank (nearer wins) —
  // verbatim the seed classifier's rule.
  std::array<int, core::kClassCount> votes{};
  std::array<double, core::kClassCount> rank_weight{};
  for (std::size_t r = 0; r < hits.size(); ++r) {
    const std::size_t c = core::index_of(labels_[hits[r].index]);
    votes[c] += 1;
    rank_weight[c] += 1.0 / static_cast<double>(r + 1);
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < core::kClassCount; ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && rank_weight[c] > rank_weight[best]))
      best = c;
  }
  return Vote{core::class_from_index(best),
              static_cast<double>(votes[best]) /
                  static_cast<double>(hits.size())};
}

std::vector<BlockedKnnIndex::Hit> reference_top_k(
    const linalg::Matrix& points, std::span<const double> q, std::size_t k,
    DistanceMetric metric) {
  const std::size_t n = points.rows();
  k = std::min(k, n);
  std::vector<std::pair<double, std::size_t>> dist(n);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = {metric == DistanceMetric::kManhattan
                   ? linalg::manhattan_distance(points.row(i), q)
                   : linalg::squared_distance(points.row(i), q),
               i};
  }
  std::partial_sort(dist.begin(),
                    dist.begin() + static_cast<std::ptrdiff_t>(k),
                    dist.end());
  std::vector<BlockedKnnIndex::Hit> out(k);
  for (std::size_t i = 0; i < k; ++i)
    out[i] = {dist[i].first, static_cast<std::uint32_t>(dist[i].second)};
  return out;
}

}  // namespace appclass::engine
