#include "engine/knn_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/assert.hpp"

namespace appclass::engine {

void BlockedKnnIndex::build(const linalg::Matrix& points,
                            std::vector<core::ApplicationClass> labels,
                            std::size_t k, DistanceMetric metric) {
  APPCLASS_EXPECTS(points.rows() == labels.size());
  APPCLASS_EXPECTS(points.rows() >= 1);
  APPCLASS_EXPECTS(points.rows() < std::numeric_limits<std::uint32_t>::max());
  APPCLASS_EXPECTS(points.cols() >= 1);
  // The median split orders coordinates with '<', which NaN would break.
  for (const double v : points.data()) APPCLASS_EXPECTS(!std::isnan(v));
  const std::size_t n = points.rows();
  dims_ = points.cols();
  k_ = k;
  metric_ = metric;
  labels_ = std::move(labels);

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // Leaves hold at least kLeafSize / 2 points once n > kLeafSize, so
  // there are at most n / 4 of them and n / 2 nodes.
  nodes_.clear();
  nodes_.reserve(n / 2 + 1);
  build_node(points, order, 0, n, 0);

  // Feature-major copy in leaf order: feature j of stored point p at
  // features_[j * n + p], its training index at index_[p].
  features_.resize(dims_ * n);
  for (std::size_t p = 0; p < n; ++p) {
    const auto row = points.row(order[p]);
    for (std::size_t j = 0; j < dims_; ++j) features_[j * n + p] = row[j];
  }
  index_ = std::move(order);
}

std::uint32_t BlockedKnnIndex::build_node(const linalg::Matrix& points,
                                          std::vector<std::uint32_t>& order,
                                          std::size_t begin, std::size_t end,
                                          std::size_t depth) {
  const auto self = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    nodes_[self] = Node{0.0, kLeaf, static_cast<std::uint32_t>(begin),
                        static_cast<std::uint32_t>(end)};
    return self;
  }
  APPCLASS_ENSURES(depth < kMaxDepth);
  std::size_t axis = 0;
  double widest = -1.0;
  for (std::size_t j = 0; j < dims_; ++j) {
    double lo = points(order[begin], j);
    double hi = lo;
    for (std::size_t p = begin + 1; p < end; ++p) {
      lo = std::min(lo, points(order[p], j));
      hi = std::max(hi, points(order[p], j));
    }
    if (hi - lo > widest) {
      widest = hi - lo;
      axis = j;
    }
  }
  // Median on the split axis: points before `mid` are <= the split and
  // points from `mid` on are >= it.
  const std::size_t mid = begin + (end - begin) / 2;
  const auto first = order.begin();
  std::nth_element(first + static_cast<std::ptrdiff_t>(begin),
                   first + static_cast<std::ptrdiff_t>(mid),
                   first + static_cast<std::ptrdiff_t>(end),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return points(a, axis) < points(b, axis);
                   });
  const double split = points(order[mid], axis);
  const std::uint32_t lo = build_node(points, order, begin, mid, depth + 1);
  const std::uint32_t hi = build_node(points, order, mid, end, depth + 1);
  nodes_[self] = Node{split, static_cast<std::uint32_t>(axis), lo, hi};
  return self;
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

template <bool kManhattan>
void BlockedKnnIndex::leaf_distances(const double* q, std::size_t qstride,
                                     std::size_t p0, std::size_t width,
                                     double* acc) const {
  // Each point's accumulator sees features in ascending order, like
  // linalg::squared_distance / manhattan_distance; the first feature
  // stores instead of adding into zero (0 + term == term bit for bit).
  const auto term = [](double d) { return kManhattan ? std::abs(d) : d * d; };
  const std::size_t n = index_.size();
  const double* col = features_.data() + p0;
  const double q0 = q[0];
  if (dims_ == 2) {
    // The paper's two principal components: both terms in one pass,
    // the same rounding sequence as the two sweeps below.
    const double* const col1 = col + n;
    const double q1 = q[qstride];
    for (std::size_t i = 0; i < width; ++i)
      acc[i] = term(col[i] - q0) + term(col1[i] - q1);
    return;
  }
  for (std::size_t i = 0; i < width; ++i) acc[i] = term(col[i] - q0);
  for (std::size_t j = 1; j < dims_; ++j) {
    col += n;
    const double qj = q[j * qstride];
    for (std::size_t i = 0; i < width; ++i) acc[i] += term(col[i] - qj);
  }
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k_block(
    const double* q, std::size_t qstride, Scratch& scratch) const {
  APPCLASS_EXPECTS(built());
  const std::size_t n = labels_.size();
  const std::size_t k = std::min(k_, n);
  scratch.hits.resize(k);
  Hit* const hits = scratch.hits.data();
  std::size_t count = 0;
  const bool manhattan = metric_ == DistanceMetric::kManhattan;

  // Lexicographic (distance, index) insertion, valid under ANY visit
  // order. The reference ascending scan keeps exactly the k
  // lexicographically smallest (distance, index) pairs — its strict '<'
  // on distance means a later tie never displaces an earlier index — so
  // maintaining that set directly lets the search visit leaves in any
  // order and still return bit-identical hits in the same order.
  const auto consider = [&](double d, std::uint32_t idx) {
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

  // Far children still owed a visit, each with its split-plane bound.
  struct Pending {
    std::uint32_t node;
    double bound;
  };
  std::array<Pending, kMaxDepth> pending{};
  std::size_t depth = 0;
  std::uint32_t node = 0;
  for (;;) {
    // Descend to the query's leaf, deferring each far child.
    while (nodes_[node].axis != kLeaf) {
      const Node& inner = nodes_[node];
      const double diff = inner.split - q[inner.axis * qstride];
      const bool left = diff > 0.0;
      pending[depth++] = {left ? inner.hi : inner.lo,
                          manhattan ? std::abs(diff) : diff * diff};
      node = left ? inner.lo : inner.hi;
    }

    const Node& leaf = nodes_[node];
    const std::size_t p0 = leaf.lo;
    const std::size_t width = leaf.hi - leaf.lo;
    std::array<double, kLeafSize> acc{};
    if (manhattan)
      leaf_distances<true>(q, qstride, p0, width, acc.data());
    else
      leaf_distances<false>(q, qstride, p0, width, acc.data());
    scratch.visited_points += width;
    for (std::size_t i = 0; i < width; ++i) consider(acc[i], index_[p0 + i]);

    // Resume at the deepest far child whose bound does not exceed the
    // k-th distance. Strict '>': a far point at exactly the k-th
    // distance may carry a lower index, which the set does admit.
    for (;;) {
      if (depth == 0) return {hits, count};
      const Pending next = pending[--depth];
      if (count < k || !(next.bound > hits[k - 1].distance)) {
        node = next.node;
        break;
      }
    }
  }
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
