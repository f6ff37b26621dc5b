// k-NN kernel throughput: queries/sec of the seed's scalar k-NN path
// (row "knn_scalar") vs the k-d tree index (row "knn_blocked"), written
// as BENCH_engine.json for the CI gates (docs/performance.md explains
// the fields).
//
//   engine_throughput [--quick] [--out=BENCH_engine.json]
//
// --quick shrinks the workload ~10x for CI smoke runs; the JSON shape is
// identical. The whole classify path (pool, thread pool, tracing) is
// measured by perfbench's batch_catalog and stream_fleet workloads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/class_label.hpp"
#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

struct Row {
  const char* mode;
  std::size_t snapshots = 0;
  double seconds = 0.0;
  double per_sec() const { return static_cast<double>(snapshots) / seconds; }
};

/// Synthetic PCA-space training set: five tight clusters like Figure 3,
/// big enough that the scalar path's distance loop dominates.
linalg::Matrix cluster_points(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.35);
  linalg::Matrix points(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(i % 5) * 3.0;
    const double cy = static_cast<double>((i % 5) % 2) * 3.0;
    points(i, 0) = cx + noise(rng);
    points(i, 1) = cy + noise(rng);
  }
  return points;
}

std::vector<core::ApplicationClass> cluster_labels(std::size_t n) {
  std::vector<core::ApplicationClass> labels(n);
  for (std::size_t i = 0; i < n; ++i)
    labels[i] = static_cast<core::ApplicationClass>(i % 5);
  return labels;
}

/// Median of kKernelPasses timed runs: one pass of the ~25 ms k-d tree
/// loop moves with a single scheduler hiccup, so a lone pass cannot tell
/// a kernel change from host noise.
constexpr std::size_t kKernelPasses = 5;
double median_run(const std::function<void()>& fn) {
  std::vector<double> seconds(kKernelPasses);
  for (double& s : seconds) {
    const auto t0 = Clock::now();
    fn();
    s = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  std::nth_element(seconds.begin(), seconds.begin() + kKernelPasses / 2,
                   seconds.end());
  return seconds[kKernelPasses / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: engine_throughput [--quick] [--out=file.json]\n");
      return 2;
    }
  }
  bench::dump_registry_at_exit();

  const std::size_t n_train = quick ? 1024 : 4096;
  const std::size_t n_query = quick ? 4000 : 40000;

  // Scalar reference vs the k-d tree: same training set, same queries,
  // single thread; each row is the median of kKernelPasses passes.
  const linalg::Matrix train = cluster_points(n_train, 7);
  const auto labels = cluster_labels(n_train);
  const linalg::Matrix queries = cluster_points(n_query, 8);
  engine::BlockedKnnIndex index;
  index.build(train, labels, 3, engine::DistanceMetric::kEuclidean);

  std::size_t scalar_checksum = 0;
  Row scalar{"knn_scalar", n_query, 0.0};
  scalar.seconds = median_run([&] {
    for (std::size_t r = 0; r < queries.rows(); ++r) {
      const auto hits = engine::reference_top_k(
          train, queries.row(r), 3, engine::DistanceMetric::kEuclidean);
      scalar_checksum +=
          index.vote(hits).label == core::ApplicationClass::kIdle ? 1u : 0u;
    }
  });

  std::size_t blocked_checksum = 0;
  Row blocked{"knn_blocked", n_query, 0.0};
  blocked.seconds = median_run([&] {
    engine::BlockedKnnIndex::Scratch scratch;
    for (std::size_t r = 0; r < queries.rows(); ++r) {
      const auto hits = index.top_k(queries.row(r), scratch);
      blocked_checksum +=
          index.vote(hits).label == core::ApplicationClass::kIdle ? 1u : 0u;
    }
  });
  // Both paths must agree — a benchmark of wrong answers is worthless.
  APPCLASS_ENSURES(scalar_checksum == blocked_checksum);

  const Row rows[] = {scalar, blocked};
  std::printf("%-14s %10s %10s %14s\n", "mode", "snapshots", "seconds",
              "snapshots/sec");
  for (const Row& row : rows)
    std::printf("%-14s %10zu %10.4f %14.0f\n", row.mode, row.snapshots,
                row.seconds, row.per_sec());
  const double speedup = blocked.per_sec() / scalar.per_sec();
  std::printf("\nk-d tree speedup over scalar: %.2fx\n", speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"engine_throughput\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"kernel_speedup\": %.3f,\n", speedup);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < 2; ++i)
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"threads\": 1, \"snapshots\": %zu, "
                 "\"seconds\": %.6f, \"snapshots_per_sec\": %.1f}%s\n",
                 rows[i].mode, rows[i].snapshots, rows[i].seconds,
                 rows[i].per_sec(), i == 0 ? "," : "");
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
