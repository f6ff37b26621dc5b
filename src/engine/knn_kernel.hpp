// Exact k-NN index: a bucket k-d tree over a feature-major point store.
//
// The seed classifier walked an AoS row-major matrix one training point
// at a time through a `std::span` distance call, heap-allocated an
// n-entry (distance, index) vector per query, and partial_sort'ed it.
// This index splits the training set once, at build time, into a bucket
// k-d tree (Friedman, Bentley & Finkel, ACM TOMS 1977): leaves of at
// most kLeafSize points, each inner node splitting at the median of its
// widest axis. A query descends near-child first and visits a far child
// only while its split-plane bound is not strictly greater than the
// current k-th distance; the best k insert into a k-slot scratch array.
// No allocation on the query path.
//
// Store layout: every leaf owns exactly kLeafSize slots, leaf after leaf
// in tree order. A leaf's slots hold its points feature-major (for the
// leaf whose first slot is p0, feature j of slot p0 + i sits at
// features_[p0 * dims + j * kLeafSize + i]) with their training indices;
// the slots past the leaf's point count are padding, 0.0 (finite) with
// index 0. The distance loop runs over all kLeafSize slots, a
// compile-time trip count, but only the leaf's real points are ever read
// back, so padding never reaches a hit.
//
// Hit list: the first k points the search visits fill the k slots, each
// by ordered insertion ("seeding"); until then no far child is pruned.
// After that the k-th distance and index live in locals: a point whose
// distance exceeds the k-th is rejected by one compare, and a pending
// far child is skipped by one `bound > kth` test.
//
// Numerical contract: per-point distance accumulation visits features in
// ascending order — exactly the order of linalg::squared_distance /
// manhattan_distance — so distances (and therefore neighbour order,
// votes, and novelty scores) are bit-identical to the seed's scalar
// path. Padding only adds lanes, never terms to a real point's sum. Ties
// in distance break toward the lower training index, matching
// partial_sort over (distance, index) pairs. Pruning never changes the
// answer: rounding is monotone, so every point beyond a split plane s on
// axis a has a computed distance >= the bound (s - q_a)^2 (|s - q_a|
// under L1); a far child is skipped only when that bound is strictly
// greater than the k-th distance, so an equal-distance lower index is
// still found; and the lexicographic (distance, index) insertion makes
// the hits independent of the order leaves are visited in.
//
// NaN queries (an unsanitized corrupt snapshot): a NaN coordinate makes
// every distance NaN, and NaN compares false with everything. Nothing is
// pruned and nothing is rejected; the first k points visited fill the
// slots, and every later point overwrites slot k - 1. The hits are thus
// k real training points fixed by the visit order, which is the same
// for both metrics. Seeding by count, never with sentinel hits, is what
// keeps every slot a real training index: a NaN never displaces
// anything but slot k - 1, so a sentinel in slots 0..k-2 would survive
// into vote(). The tests pin these hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/class_label.hpp"
#include "linalg/matrix.hpp"

namespace appclass::engine {

enum class DistanceMetric { kEuclidean, kManhattan };

/// A batch of query points in the kernel's own feature-major SoA layout:
/// feature j of query i lives at data()[j * stride() + i]. Producers
/// (the pipeline's batched normalize+project stage) write straight into
/// this layout, so the kernel consumes query points without any
/// per-snapshot repacking or per-query allocation. Grow-only: reset()
/// reuses the backing store across batches once it has seen the largest
/// batch.
class QueryBlock {
 public:
  /// Prepares the block for `count` points of `dims` features. Contents
  /// are unspecified until every point is written.
  void reset(std::size_t dims, std::size_t count) {
    dims_ = dims;
    count_ = count;
    if (count > capacity_) capacity_ = count;
    if (data_.size() < dims_ * capacity_) data_.resize(dims_ * capacity_);
  }

  std::size_t dims() const noexcept { return dims_; }
  std::size_t count() const noexcept { return count_; }
  /// Distance (in doubles) between consecutive features of one point.
  std::size_t stride() const noexcept { return capacity_; }

  /// Base of point i: feature j at point(i)[j * stride()].
  double* point(std::size_t i) noexcept { return data_.data() + i; }
  const double* point(std::size_t i) const noexcept {
    return data_.data() + i;
  }

  double at(std::size_t i, std::size_t j) const noexcept {
    return data_[j * capacity_ + i];
  }

 private:
  std::vector<double> data_;  ///< [dims_][capacity_] feature-major
  std::size_t dims_ = 0;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;
};

class BlockedKnnIndex {
 public:
  /// One neighbour candidate: metric-space distance (squared L2, or L1
  /// sum) and the training-point index.
  struct Hit {
    double distance = 0.0;
    std::uint32_t index = 0;
  };

  /// Outcome of the majority vote over the k hits.
  struct Vote {
    core::ApplicationClass label = core::ApplicationClass::kIdle;
    double share = 0.0;   ///< winning votes / k, in (0, 1]
    double margin = 0.0;  ///< (winning - runner-up votes) / k, in [0, 1]
  };

  /// Per-thread scratch reused across queries (the k-slot selection
  /// array). Cheap to default-construct; sized lazily.
  struct Scratch {
    std::vector<Hit> hits;
    /// Distance evaluations since construction (or the caller's last
    /// reset); accumulates across queries so shard spans can report how
    /// much of the training set the search touched.
    std::uint64_t visited_points = 0;
  };

  BlockedKnnIndex() = default;

  /// Builds the tree over `points` (row-major, one training point per
  /// row, none NaN) and copies them into its leaf order. `k` is clamped
  /// to the point count at query time.
  void build(const linalg::Matrix& points,
             std::vector<core::ApplicationClass> labels, std::size_t k,
             DistanceMetric metric);

  bool built() const noexcept { return !labels_.empty(); }
  std::size_t size() const noexcept { return labels_.size(); }
  std::size_t dimension() const noexcept { return dims_; }
  std::size_t k() const noexcept { return k_; }
  DistanceMetric metric() const noexcept { return metric_; }
  std::span<const core::ApplicationClass> labels() const noexcept {
    return labels_;
  }

  /// The k nearest training points of `q`, ascending (distance, index);
  /// the returned span lives in `scratch`. hits[0] is the nearest
  /// training point overall (the novelty distance).
  std::span<const Hit> top_k(std::span<const double> q,
                             Scratch& scratch) const;

  /// Same query, reading point `i` of a feature-major QueryBlock in
  /// place (stride = block.stride()) — the batched-ingest entry point.
  /// Both overloads run the one search (top_k_block), so a point answers
  /// identically whichever layout holds it.
  std::span<const Hit> top_k(const QueryBlock& block, std::size_t i,
                             Scratch& scratch) const;

  /// Majority vote over hits (at most k of them); ties break by summed
  /// inverse rank (nearer neighbours win), matching the seed classifier.
  /// Label, share and margin come from one counting pass.
  Vote vote(std::span<const Hit> hits) const;

 private:
  /// Most points in one leaf of the tree.
  static constexpr std::size_t kLeafSize = 8;
  /// One tree node. An inner node splits on `axis` at `split`: child
  /// `lo` holds its points with x[axis] <= split and child `hi` those
  /// with x[axis] >= split (a run of equal values may straddle the two).
  /// A leaf (axis == kLeaf) holds its points in the slots [lo, hi),
  /// which start at a multiple of kLeafSize.
  struct Node {
    double split = 0.0;
    std::uint32_t axis = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  static constexpr std::uint32_t kLeaf = ~std::uint32_t{0};
  /// Most inner nodes on one root-to-leaf path, which bounds the
  /// search's fixed stack. A median split leaves at least kLeafSize / 2
  /// points on each side, so a path has at most log2(n / 4) inner nodes:
  /// under 32 for any uint32 point count.
  static constexpr std::size_t kMaxDepth = 32;

  /// The search behind both top_k overloads: feature j of the query at
  /// q[j * qstride] (1 for a span, the block's stride for a QueryBlock).
  std::span<const Hit> top_k_block(const double* q, std::size_t qstride,
                                   Scratch& scratch) const;
  /// top_k_block for one metric, compiled per metric so that the
  /// descent loop carries no metric test.
  template <bool kManhattan>
  std::span<const Hit> search(const double* q, std::size_t qstride,
                              Scratch& scratch) const;
  /// acc[i] = distance from the query to slot p0 + i, for all
  /// kLeafSize slots of the leaf at slot base p0 (pad slots included).
  template <bool kManhattan>
  void leaf_distances(const double* q, std::size_t qstride, std::size_t p0,
                      double* acc) const;
  /// Builds the subtree over order[begin, end) (training indices) and
  /// returns its node.
  std::uint32_t build_node(const linalg::Matrix& points,
                           std::vector<std::uint32_t>& order,
                           std::size_t begin, std::size_t end,
                           std::size_t depth);

  std::size_t dims_ = 0;
  std::size_t k_ = 3;
  DistanceMetric metric_ = DistanceMetric::kEuclidean;
  std::vector<Node> nodes_;          ///< nodes_[0] is the root
  std::vector<double> features_;      ///< per leaf: [dims_][kLeafSize]
  std::vector<std::uint32_t> index_;  ///< training index of slot p
  std::vector<core::ApplicationClass> labels_;
  /// rank_weight_[r] = 1.0 / (r + 1), the vote tie-break weight of the
  /// r-th nearest hit, for r < min(k, n).
  std::vector<double> rank_weight_;
};

/// The seed's scalar query path, preserved verbatim as the ground truth
/// for kernel tests and the baseline for bench/engine_throughput: per
/// query, allocate an n-entry (distance, index) vector, fill it with
/// span-based distance calls over the row-major matrix, partial_sort.
std::vector<BlockedKnnIndex::Hit> reference_top_k(
    const linalg::Matrix& points, std::span<const double> q, std::size_t k,
    DistanceMetric metric);

}  // namespace appclass::engine
