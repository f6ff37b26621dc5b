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
  rank_weight_.resize(std::min(k, n));
  for (std::size_t r = 0; r < rank_weight_.size(); ++r)
    rank_weight_[r] = 1.0 / static_cast<double>(r + 1);

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // Leaves hold at least kLeafSize / 2 points once n > kLeafSize, so
  // there are at most n / 4 of them and n / 2 nodes.
  nodes_.clear();
  nodes_.reserve(n / 2 + 1);
  build_node(points, order, 0, n, 0);

  // Every leaf owns kLeafSize slots, one leaf after another in node
  // order (see the header for the layout). Pad slots stay 0.0 / 0:
  // finite, and never read back.
  std::size_t leaves = 0;
  for (const Node& node : nodes_) leaves += node.axis == kLeaf;
  APPCLASS_EXPECTS(leaves * kLeafSize <
                   std::numeric_limits<std::uint32_t>::max());
  features_.assign(leaves * kLeafSize * dims_, 0.0);
  index_.assign(leaves * kLeafSize, 0);
  std::uint32_t slot = 0;
  for (Node& leaf : nodes_) {
    if (leaf.axis != kLeaf) continue;
    const std::uint32_t width = leaf.hi - leaf.lo;
    for (std::uint32_t i = 0; i < width; ++i) {
      const std::uint32_t point = order[leaf.lo + i];
      const auto row = points.row(point);
      double* const block = features_.data() + slot * dims_;
      for (std::size_t j = 0; j < dims_; ++j)
        block[j * kLeafSize + i] = row[j];
      index_[slot + i] = point;
    }
    leaf.lo = slot;
    leaf.hi = slot + width;
    slot += static_cast<std::uint32_t>(kLeafSize);
  }
}

std::uint32_t BlockedKnnIndex::build_node(const linalg::Matrix& points,
                                          std::vector<std::uint32_t>& order,
                                          std::size_t begin, std::size_t end,
                                          std::size_t depth) {
  const auto self = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    // Re-pointed at the leaf's slots once the tree is built.
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
                                     std::size_t p0, double* acc) const {
  // Each slot's accumulator sees features in ascending order, like
  // linalg::squared_distance / manhattan_distance; the first feature
  // stores instead of adding into zero (0 + term == term bit for bit).
  // The loops run the full leaf width, pad slots included, so they have
  // a compile-time trip count and no per-leaf tail.
  const auto term = [](double d) { return kManhattan ? std::abs(d) : d * d; };
  const double* block = features_.data() + p0 * dims_;
  const double q0 = q[0];
  for (std::size_t i = 0; i < kLeafSize; ++i) acc[i] = term(block[i] - q0);
  for (std::size_t j = 1; j < dims_; ++j) {
    block += kLeafSize;
    const double qj = q[j * qstride];
    for (std::size_t i = 0; i < kLeafSize; ++i) acc[i] += term(block[i] - qj);
  }
}

std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::top_k_block(
    const double* q, std::size_t qstride, Scratch& scratch) const {
  APPCLASS_EXPECTS(built());
  return metric_ == DistanceMetric::kManhattan
             ? search<true>(q, qstride, scratch)
             : search<false>(q, qstride, scratch);
}

template <bool kManhattan>
std::span<const BlockedKnnIndex::Hit> BlockedKnnIndex::search(
    const double* q, std::size_t qstride, Scratch& scratch) const {
  const std::size_t k = std::min(k_, labels_.size());
  scratch.hits.resize(k);
  Hit* const hits = scratch.hits.data();

  // Lexicographic (distance, index) insertion from slot `pos` down,
  // valid under ANY visit order. The reference ascending scan keeps
  // exactly the k lexicographically smallest (distance, index) pairs —
  // its strict '<' on distance means a later tie never displaces an
  // earlier index — so maintaining that set directly lets the search
  // visit leaves in any order and still return bit-identical hits in
  // the same order.
  const auto insert = [hits](std::size_t pos, double d, std::uint32_t idx) {
    while (pos > 0 && (d < hits[pos - 1].distance ||
                       (d == hits[pos - 1].distance &&
                        idx < hits[pos - 1].index))) {
      hits[pos] = hits[pos - 1];
      --pos;
    }
    hits[pos] = Hit{d, idx};
  };
  // Slots filled so far. While count < k the k-th distance is +inf, so
  // the pop test below visits every pending node.
  std::size_t count = 0;
  double kth = std::numeric_limits<double>::infinity();
  std::uint32_t kth_index = 0;

  // Far children still owed a visit, each with its split-plane bound.
  // Only the entries below `depth` are ever read.
  struct Pending {
    std::uint32_t node;
    double bound;
  };
  std::array<Pending, kMaxDepth> pending;
  std::size_t depth = 0;
  std::uint32_t node = 0;
  for (;;) {
    // Descend to the query's leaf, deferring each far child.
    while (nodes_[node].axis != kLeaf) {
      const Node& inner = nodes_[node];
      const double diff = inner.split - q[inner.axis * qstride];
      const bool left = diff > 0.0;
      pending[depth++] = {left ? inner.hi : inner.lo,
                          kManhattan ? std::abs(diff) : diff * diff};
      node = left ? inner.lo : inner.hi;
    }

    const Node& leaf = nodes_[node];
    const std::size_t p0 = leaf.lo;
    const std::size_t width = leaf.hi - leaf.lo;
    std::array<double, kLeafSize> acc;
    leaf_distances<kManhattan>(q, qstride, p0, acc.data());
    scratch.visited_points += width;
    const std::uint32_t* const idx = index_.data() + p0;
    std::size_t i = 0;
    if (count < k) {
      // Seeding: the first k points visited fill the slots in order.
      for (; i < width && count < k; ++i) insert(count++, acc[i], idx[i]);
      if (count == k) {
        kth = hits[k - 1].distance;
        kth_index = hits[k - 1].index;
      }
    }
    for (; i < width; ++i) {
      // One compare rejects most points. A NaN distance passes both
      // tests and lands in slot k - 1 (see the header on NaN queries).
      const double d = acc[i];
      if (d > kth || (d == kth && idx[i] > kth_index)) continue;
      insert(k - 1, d, idx[i]);
      kth = hits[k - 1].distance;
      kth_index = hits[k - 1].index;
    }

    // Resume at the deepest far child whose bound does not exceed the
    // k-th distance. Strict '>': a far point at exactly the k-th
    // distance may carry a lower index, which the set does admit.
    for (;;) {
      if (depth == 0) return {hits, k};
      const Pending next = pending[--depth];
      if (!(next.bound > kth)) {
        node = next.node;
        break;
      }
    }
  }
}

BlockedKnnIndex::Vote BlockedKnnIndex::vote(std::span<const Hit> hits) const {
  APPCLASS_EXPECTS(!hits.empty());
  APPCLASS_EXPECTS(hits.size() <= rank_weight_.size());
  // Majority vote; ties resolved by summed inverse rank (nearer wins) —
  // verbatim the seed classifier's rule.
  std::array<int, core::kClassCount> votes{};
  std::array<double, core::kClassCount> rank_weight{};
  for (std::size_t r = 0; r < hits.size(); ++r) {
    const std::size_t c = core::index_of(labels_[hits[r].index]);
    votes[c] += 1;
    rank_weight[c] += rank_weight_[r];
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < core::kClassCount; ++c) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && rank_weight[c] > rank_weight[best]))
      best = c;
  }
  int runner_up = 0;
  for (std::size_t c = 0; c < core::kClassCount; ++c)
    if (c != best) runner_up = std::max(runner_up, votes[c]);
  const auto k = static_cast<double>(hits.size());
  return Vote{core::class_from_index(best),
              static_cast<double>(votes[best]) / k,
              static_cast<double>(votes[best] - runner_up) / k};
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
