// The k-d tree index must agree bit-for-bit with the seed's scalar
// query path (preserved as engine::reference_top_k): same distances,
// same neighbour order, same tie-breaks, for every size around the leaf
// size, for degenerate point sets and split-plane queries, and under
// both metrics — otherwise threaded classification could drift from the
// serial baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"

namespace appclass {
namespace {

using engine::BlockedKnnIndex;
using engine::DistanceMetric;

linalg::Matrix random_points(std::size_t n, std::size_t dims,
                             std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  linalg::Matrix m(n, dims);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < dims; ++c) m(r, c) = dist(rng);
  return m;
}

std::vector<core::ApplicationClass> cycling_labels(std::size_t n) {
  std::vector<core::ApplicationClass> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<core::ApplicationClass>(i % 5);
  return labels;
}

/// Every row of `queries` must come back bit-identical to the reference
/// scan: same distances, same indices, same order.
void expect_same_as_reference(const linalg::Matrix& points,
                              const linalg::Matrix& queries, std::size_t k,
                              DistanceMetric metric) {
  BlockedKnnIndex index;
  index.build(points, cycling_labels(points.rows()), k, metric);
  BlockedKnnIndex::Scratch scratch;
  const char* const name =
      metric == DistanceMetric::kManhattan ? "manhattan" : "euclidean";
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    const auto q = queries.row(r);
    const auto hits = index.top_k(q, scratch);
    const auto expected = engine::reference_top_k(points, q, k, metric);
    ASSERT_EQ(hits.size(), expected.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
      // Bit-identical, not approximately equal: both paths must sum the
      // per-feature terms in the same order.
      EXPECT_EQ(hits[i].distance, expected[i].distance)
          << name << " n=" << points.rows() << " dims=" << points.cols()
          << " k=" << k << " query=" << r << " rank=" << i;
      EXPECT_EQ(hits[i].index, expected[i].index)
          << name << " n=" << points.rows() << " dims=" << points.cols()
          << " k=" << k << " query=" << r << " rank=" << i;
    }
    // hits[0] doubles as the novelty distance: the global minimum.
    EXPECT_EQ(hits[0].distance, expected[0].distance);
  }
}

void expect_matches_reference(std::size_t n, std::size_t dims, std::size_t k,
                              DistanceMetric metric, std::uint32_t seed) {
  expect_same_as_reference(random_points(n, dims, seed),
                           random_points(64, dims, seed + 1), k, metric);
}

constexpr DistanceMetric kMetrics[] = {DistanceMetric::kEuclidean,
                                       DistanceMetric::kManhattan};

/// Each row of `points` with one coordinate at a time moved by `offset`:
/// a query level with the point on every other axis, so the moved axis
/// alone decides its distance to the whole run of equal points.
linalg::Matrix axis_offsets(const linalg::Matrix& points, double offset) {
  linalg::Matrix out(points.rows() * points.cols(), points.cols());
  for (std::size_t r = 0; r < points.rows(); ++r)
    for (std::size_t j = 0; j < points.cols(); ++j)
      for (std::size_t c = 0; c < points.cols(); ++c)
        out(r * points.cols() + j, c) =
            points(r, c) + (c == j ? offset : 0.0);
  return out;
}

TEST(EngineKernel, MatchesReferenceAcrossTileBoundaries) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{255}, std::size_t{256}, std::size_t{257},
        std::size_t{768}, std::size_t{773}}) {
    expect_matches_reference(n, 2, 3, DistanceMetric::kEuclidean,
                             static_cast<std::uint32_t>(n));
  }
}

TEST(EngineKernel, MatchesReferenceUnderManhattan) {
  for (const std::size_t n :
       {std::size_t{5}, std::size_t{256}, std::size_t{529}}) {
    expect_matches_reference(n, 8, 3, DistanceMetric::kManhattan,
                             static_cast<std::uint32_t>(100 + n));
  }
}

TEST(EngineKernel, MatchesReferenceForVariousK) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{9},
                              std::size_t{31}}) {
    expect_matches_reference(500, 4, k, DistanceMetric::kEuclidean,
                             static_cast<std::uint32_t>(1000 + k));
  }
}

TEST(EngineKernel, KLargerThanPointCountIsClamped) {
  const linalg::Matrix points = random_points(4, 2, 7);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(4), 9, DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(points.row(0), scratch);
  EXPECT_EQ(hits.size(), 4u);
}

TEST(EngineKernel, SelfDistanceIsExactlyZero) {
  // The kernel accumulates squared differences directly (no norm-trick
  // expansion), so a training point queried against itself must come back
  // at distance exactly 0.0 — the novelty tests depend on this.
  const linalg::Matrix points = random_points(700, 2, 42);
  BlockedKnnIndex index;
  index.build(points, cycling_labels(700), 3, DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < points.rows(); r += 13) {
    const auto hits = index.top_k(points.row(r), scratch);
    EXPECT_EQ(hits[0].distance, 0.0);
    EXPECT_EQ(hits[0].index, r);
  }
}

TEST(EngineKernel, PruningNeverChangesResults) {
  // Two tight clusters very far apart: querying inside one cluster makes
  // the other cluster's subtree prunable at the split between them. The
  // pruned search must still return exactly what the reference scan
  // returns.
  std::mt19937 rng(99);
  std::normal_distribution<double> noise(0.0, 0.01);
  const std::size_t half = 512;
  linalg::Matrix points(2 * half, 2);
  for (std::size_t r = 0; r < half; ++r) {
    points(r, 0) = noise(rng);
    points(r, 1) = noise(rng);
  }
  for (std::size_t r = half; r < 2 * half; ++r) {
    points(r, 0) = 1000.0 + noise(rng);
    points(r, 1) = 1000.0 + noise(rng);
  }
  BlockedKnnIndex index;
  index.build(points, cycling_labels(2 * half), 3,
              DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t r = 0; r < 2 * half; r += 37) {
    const auto hits = index.top_k(points.row(r), scratch);
    const auto expected =
        engine::reference_top_k(points, points.row(r), 3,
                                DistanceMetric::kEuclidean);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].distance, expected[i].distance);
      EXPECT_EQ(hits[i].index, expected[i].index);
    }
  }
}

TEST(EngineKernel, TieBreaksTowardLowerIndex) {
  // Four training points equidistant from the query; the reported
  // neighbours must be the lowest indices, like partial_sort over
  // (distance, index) pairs.
  linalg::Matrix points{{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}};
  BlockedKnnIndex index;
  index.build(points, cycling_labels(4), 3, DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(std::vector<double>{0.0, 0.0}, scratch);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 1u);
  EXPECT_EQ(hits[2].index, 2u);
}

TEST(EngineKernel, QueryBlockStridedPathMatchesContiguousPath) {
  // The streaming drain lays query points feature-major in a QueryBlock
  // (stride = block capacity); the strided loads must reproduce the
  // contiguous span path bit-for-bit — only addresses change, never the
  // order the per-feature terms are accumulated in.
  for (const auto metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kManhattan}) {
    const std::size_t dims = 3;
    const linalg::Matrix points = random_points(700, dims, 11);
    BlockedKnnIndex index;
    index.build(points, cycling_labels(700), 3, metric);
    BlockedKnnIndex::Scratch scratch;

    const linalg::Matrix queries = random_points(40, dims, 12);
    engine::QueryBlock block;
    // Reset large then small: count < capacity forces stride > count, so
    // the strided addressing is actually exercised.
    block.reset(dims, 64);
    block.reset(dims, queries.rows());
    ASSERT_GT(block.stride(), queries.rows());
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      double* point = block.point(i);
      for (std::size_t j = 0; j < dims; ++j)
        point[j * block.stride()] = queries(i, j);
    }

    for (std::size_t i = 0; i < queries.rows(); ++i) {
      const auto strided = index.top_k(block, i, scratch);
      // Copy before the second query: both calls share the scratch the
      // returned span points into.
      const std::vector<BlockedKnnIndex::Hit> strided_hits(strided.begin(),
                                                           strided.end());
      const auto contiguous = index.top_k(queries.row(i), scratch);
      ASSERT_EQ(strided_hits.size(), contiguous.size());
      for (std::size_t r = 0; r < contiguous.size(); ++r) {
        EXPECT_EQ(strided_hits[r].distance, contiguous[r].distance)
            << "query=" << i << " rank=" << r;
        EXPECT_EQ(strided_hits[r].index, contiguous[r].index)
            << "query=" << i << " rank=" << r;
      }
    }
  }
}

TEST(EngineKernel, AllPointsIdenticalReturnLowestIndices) {
  // One run of 300 equal points: every split value equals every point,
  // so the search must walk into far children whose bound ties the k-th
  // distance to find the lowest indices.
  linalg::Matrix points(300, 2);
  for (std::size_t r = 0; r < points.rows(); ++r) {
    points(r, 0) = 1.5;
    points(r, 1) = -0.25;
  }
  // The point itself, the point moved along one axis at a time (level
  // with the run on the other axis), and a point off both axes.
  const linalg::Matrix queries{{1.5, -0.25}, {3.5, -0.25}, {-0.5, -0.25},
                               {1.5, 1.75},  {1.5, -2.25}, {4.0, 7.0}};
  for (const auto metric : kMetrics) {
    for (const std::size_t k : {std::size_t{3}, std::size_t{31}}) {
      expect_same_as_reference(points, queries, k, metric);
      BlockedKnnIndex index;
      index.build(points, cycling_labels(points.rows()), k, metric);
      BlockedKnnIndex::Scratch scratch;
      for (std::size_t r = 0; r < queries.rows(); ++r) {
        const auto hits = index.top_k(queries.row(r), scratch);
        ASSERT_EQ(hits.size(), k);
        for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(hits[i].index, i);
      }
    }
  }
}

TEST(EngineKernel, RepeatedLatticeSplitsStraddleEqualValues) {
  // A 3x3 lattice repeated 40 times: medians fall inside runs of equal
  // coordinates, so equal split values land in both children, and most
  // queries tie many points at the k-th distance.
  linalg::Matrix points(9 * 40, 2);
  for (std::size_t r = 0; r < points.rows(); ++r) {
    points(r, 0) = static_cast<double>(r % 3);
    points(r, 1) = static_cast<double>((r / 3) % 3);
  }
  linalg::Matrix lattice(9, 2);
  for (std::size_t r = 0; r < 9; ++r) {
    lattice(r, 0) = static_cast<double>(r % 3);
    lattice(r, 1) = static_cast<double>(r / 3);
  }
  for (const auto metric : kMetrics) {
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{3}, std::size_t{41}}) {
      expect_same_as_reference(points, lattice, k, metric);
      expect_same_as_reference(points, axis_offsets(lattice, 0.5), k, metric);
      expect_same_as_reference(points, axis_offsets(lattice, 1.0), k, metric);
      expect_same_as_reference(points, axis_offsets(lattice, -3.0), k,
                               metric);
    }
  }
}

TEST(EngineKernel, QueriesOnSplitPlanesMatchReference) {
  // Every split value is some training point's coordinate on the split
  // axis, so a query sharing one coordinate with each training point
  // lies exactly on every split plane of the tree at least once.
  for (const auto metric : kMetrics) {
    const linalg::Matrix points = random_points(300, 2, 31);
    const linalg::Matrix other = random_points(points.rows(), 2, 32);
    linalg::Matrix queries(2 * points.rows(), 2);
    for (std::size_t r = 0; r < points.rows(); ++r) {
      queries(2 * r, 0) = points(r, 0);
      queries(2 * r, 1) = other(r, 1);
      queries(2 * r + 1, 0) = other(r, 0);
      queries(2 * r + 1, 1) = points(r, 1);
    }
    expect_same_as_reference(points, queries, 3, metric);
  }
}

TEST(EngineKernel, QueriesFarOutsideTheHullMatchReference) {
  for (const auto metric : kMetrics) {
    const linalg::Matrix points = random_points(500, 2, 41);
    linalg::Matrix queries = random_points(64, 2, 42);
    for (std::size_t r = 0; r < queries.rows(); ++r)
      for (std::size_t c = 0; c < queries.cols(); ++c)
        queries(r, c) *= 100.0;
    expect_same_as_reference(points, queries, 3, metric);
  }
}

TEST(EngineKernel, MatchesReferenceAroundTheLeafSize) {
  for (const auto metric : kMetrics)
    for (std::size_t n = 1; n <= 40; ++n)
      expect_matches_reference(n, 2, 3, metric,
                               static_cast<std::uint32_t>(2000 + n));
}

TEST(EngineKernel, MatchesReferenceForEveryDimensionUpToEight) {
  for (const auto metric : kMetrics)
    for (std::size_t dims = 1; dims <= 8; ++dims)
      expect_matches_reference(300, dims, 3, metric,
                               static_cast<std::uint32_t>(3000 + dims));
}

TEST(EngineKernel, InClusterQueryVisitsFewPoints) {
  // engine_throughput's training set: 4,096 points in five tight 2-D
  // clusters. A query at a cluster centre must settle within a few
  // leaves; a silent fall-back to a full scan would visit all 4,096.
  const std::size_t n = 4096;
  std::mt19937 rng(7);
  std::normal_distribution<double> noise(0.0, 0.35);
  linalg::Matrix points(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    points(i, 0) = static_cast<double>(i % 5) * 3.0 + noise(rng);
    points(i, 1) = static_cast<double>((i % 5) % 2) * 3.0 + noise(rng);
  }
  BlockedKnnIndex index;
  index.build(points, cycling_labels(n), 3, DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  for (std::size_t c = 0; c < 5; ++c) {
    const std::vector<double> centre{static_cast<double>(c) * 3.0,
                                     static_cast<double>(c % 2) * 3.0};
    const std::uint64_t before = scratch.visited_points;
    index.top_k(centre, scratch);
    EXPECT_LT(scratch.visited_points - before, n / 8) << "cluster " << c;
  }
}

TEST(EngineKernel, NanQueryReturnsPinnedTrainingIndices) {
  // A NaN coordinate makes every distance NaN, which compares false
  // with everything: no far child is pruned, the first k points visited
  // fill the k slots, and each later point overwrites slot k - 1. The
  // answer depends only on the visit order, which both metrics share,
  // and it must name k real training points (vote() reads their
  // labels). Unsanitized corrupt snapshots reach the search this way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const linalg::Matrix points = random_points(300, 2, 51);
  const std::vector<std::vector<double>> queries{{nan, 0.5}, {0.5, nan}};
  const std::vector<std::vector<std::uint32_t>> pinned_k3{{182, 1, 165},
                                                          {209, 175, 165}};
  const std::vector<std::vector<std::uint32_t>> pinned_k31{
      {182, 1,   195, 281, 101, 219, 3,   92,  285, 143, 78,
       271, 27,  135, 123, 61,  140, 164, 214, 129, 18,  223,
       84,  206, 270, 72,  103, 4,   133, 141, 165},
      {209, 175, 274, 296, 213, 142, 229, 218, 131, 26,  207,
       171, 106, 89,  93,  269, 174, 294, 76,  246, 167, 243,
       257, 134, 34,  232, 250, 259, 146, 48,  165}};
  for (const auto metric : kMetrics) {
    for (const std::size_t k : {std::size_t{3}, std::size_t{31}}) {
      BlockedKnnIndex index;
      index.build(points, cycling_labels(points.rows()), k, metric);
      BlockedKnnIndex::Scratch scratch;
      for (std::size_t r = 0; r < queries.size(); ++r) {
        const auto hits = index.top_k(queries[r], scratch);
        ASSERT_EQ(hits.size(), k);
        std::vector<std::uint32_t> indices;
        for (const auto& hit : hits) {
          EXPECT_TRUE(std::isnan(hit.distance));
          ASSERT_LT(hit.index, points.rows());
          indices.push_back(hit.index);
        }
        EXPECT_EQ(indices, (k == 3 ? pinned_k3 : pinned_k31)[r])
            << "k=" << k << " query=" << r;
        index.vote(hits);
      }
    }
  }
}

TEST(EngineKernel, InfiniteQueriesMatchReference) {
  // Every distance is +inf, so only the index tie-break orders the hits.
  const double inf = std::numeric_limits<double>::infinity();
  const linalg::Matrix points = random_points(300, 2, 52);
  const linalg::Matrix queries{
      {inf, 0.5}, {-inf, 0.5}, {0.5, inf}, {0.5, -inf}, {inf, -inf}};
  for (const auto metric : kMetrics)
    for (const std::size_t k : {std::size_t{3}, std::size_t{31}})
      expect_same_as_reference(points, queries, k, metric);
}

TEST(EngineKernel, VoteMatchesSeedSemantics) {
  BlockedKnnIndex index;
  linalg::Matrix points{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  index.build(points,
              {core::ApplicationClass::kCpu, core::ApplicationClass::kCpu,
               core::ApplicationClass::kIo},
              3, DistanceMetric::kEuclidean);
  BlockedKnnIndex::Scratch scratch;
  const auto hits = index.top_k(std::vector<double>{0.9, 0.0}, scratch);
  const auto vote = index.vote(hits);
  EXPECT_EQ(vote.label, core::ApplicationClass::kCpu);
  EXPECT_DOUBLE_EQ(vote.share, 2.0 / 3.0);
}

TEST(EngineKernel, VoteMarginIsWinnerMinusRunnerUpOverK) {
  using core::ApplicationClass;
  const linalg::Matrix points{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  BlockedKnnIndex::Scratch scratch;
  BlockedKnnIndex index;
  // Query at 0 ranks the points 0..4; at 4 it ranks them 4..0.
  index.build(points,
              {ApplicationClass::kIo, ApplicationClass::kCpu,
               ApplicationClass::kCpu, ApplicationClass::kIo,
               ApplicationClass::kMemory},
              5, DistanceMetric::kEuclidean);
  // Io and Cpu tie at two votes each. Io's ranks 1 and 4 outweigh Cpu's
  // 2 and 3 (1 + 1/4 against 1/2 + 1/3); from the other end Io's ranks
  // 2 and 5 outweigh Cpu's 3 and 4.
  for (const double at : {0.0, 4.0}) {
    const auto vote = index.vote(index.top_k(std::vector<double>{at}, scratch));
    EXPECT_EQ(vote.label, ApplicationClass::kIo) << "at=" << at;
    EXPECT_EQ(vote.share, 2.0 / 5.0);
    EXPECT_EQ(vote.margin, 0.0);
  }
  index.build(points,
              {ApplicationClass::kCpu, ApplicationClass::kCpu,
               ApplicationClass::kCpu, ApplicationClass::kIo,
               ApplicationClass::kMemory},
              5, DistanceMetric::kEuclidean);
  const auto vote = index.vote(index.top_k(std::vector<double>{0.0}, scratch));
  EXPECT_EQ(vote.label, ApplicationClass::kCpu);
  EXPECT_EQ(vote.share, 3.0 / 5.0);
  EXPECT_EQ(vote.margin, 2.0 / 5.0);
}

}  // namespace
}  // namespace appclass
