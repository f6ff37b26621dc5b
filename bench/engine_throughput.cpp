// Engine throughput: snapshots/sec of the seed's scalar k-NN path vs the
// k-d tree index (row "knn_blocked") vs the threaded pipeline, written as
// BENCH_engine.json for CI trend tracking (docs/performance.md explains
// the fields).
//
//   engine_throughput [--quick] [--out=BENCH_engine.json]
//
// --quick shrinks the workloads ~10x for CI smoke runs; the JSON shape
// is identical. Thread speedups are measured on whatever cores the host
// offers — on a single-core container the threaded rows legitimately
// show ~1x.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "engine/knn_kernel.hpp"
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string mode;
  std::size_t threads = 1;
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

double time_run(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of kKernelPasses timed runs: one pass of the ~25 ms k-d tree
/// loop moves with a single scheduler hiccup, so a lone pass cannot tell
/// a kernel change from host noise.
constexpr std::size_t kKernelPasses = 5;
double median_run(const std::function<void()>& fn) {
  std::vector<double> seconds(kKernelPasses);
  for (double& s : seconds) s = time_run(fn);
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
  const std::size_t pool_reps = quick ? 4 : 40;

  std::vector<Row> rows;

  // --- Kernel microbenchmark: scalar reference vs the k-d tree, same
  // training set, same queries, single thread; each row is the median of
  // kKernelPasses passes over the queries.
  {
    const linalg::Matrix train = cluster_points(n_train, 7);
    const auto labels = cluster_labels(n_train);
    const linalg::Matrix queries = cluster_points(n_query, 8);
    engine::BlockedKnnIndex index;
    index.build(train, labels, 3, engine::DistanceMetric::kEuclidean);

    std::size_t scalar_checksum = 0;
    Row scalar{"knn_scalar", 1, n_query, 0.0};
    scalar.seconds = median_run([&] {
      for (std::size_t r = 0; r < queries.rows(); ++r) {
        const auto hits = engine::reference_top_k(
            train, queries.row(r), 3, engine::DistanceMetric::kEuclidean);
        scalar_checksum += index.vote(hits).label ==
                                   core::ApplicationClass::kIdle
                               ? 1u
                               : 0u;
      }
    });
    rows.push_back(scalar);

    std::size_t blocked_checksum = 0;
    Row blocked{"knn_blocked", 1, n_query, 0.0};
    blocked.seconds = median_run([&] {
      engine::BlockedKnnIndex::Scratch scratch;
      for (std::size_t r = 0; r < queries.rows(); ++r) {
        const auto hits = index.top_k(queries.row(r), scratch);
        blocked_checksum +=
            index.vote(hits).label == core::ApplicationClass::kIdle ? 1 : 0u;
      }
    });
    rows.push_back(blocked);
    // Both paths must agree — a benchmark of wrong answers is worthless.
    APPCLASS_ENSURES(scalar_checksum == blocked_checksum);
  }

  // --- End-to-end pipeline: the five canonical runs concatenated into
  // one big pool, classified at parallelism 1 / 2 / 8.
  {
    const auto training = core::collect_training_pools();
    metrics::DataPool big("10.0.0.99");
    for (std::size_t rep = 0; rep < pool_reps; ++rep)
      for (const auto& lp : training)
        for (const auto& snapshot : lp.pool.snapshots()) big.add(snapshot);

    core::PipelineOptions options;
    options.novelty_threshold = 2.5;
    core::ClassificationPipeline pipeline(options);
    pipeline.train(training);

    core::ClassificationResult serial_result;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      pipeline.set_parallelism(threads);
      pipeline.classify(big);  // warm-up (pool spin-up, page-in)
      Row row{"pipeline", threads, big.size(), 0.0};
      core::ClassificationResult result;
      row.seconds = time_run([&] { result = pipeline.classify(big); });
      rows.push_back(row);
      if (threads == 1) {
        serial_result = std::move(result);
      } else {
        APPCLASS_ENSURES(result.class_vector == serial_result.class_vector);
        APPCLASS_ENSURES(result.confidences == serial_result.confidences);
        APPCLASS_ENSURES(result.novelty == serial_result.novelty);
      }
    }

    // --- Tracing overhead guard: same serial classification with span
    // recording on. The ratio lands in the JSON so CI can flag a
    // regression in the "tracing disabled costs nothing" invariant —
    // and the traced run must stay bit-identical.
    pipeline.set_parallelism(1);
    appclass::obs::set_tracing_enabled(true);
    pipeline.classify(big);  // warm-up with tracing active
    Row traced{"pipeline_traced", 1, big.size(), 0.0};
    core::ClassificationResult traced_result;
    traced.seconds =
        time_run([&] { traced_result = pipeline.classify(big); });
    appclass::obs::set_tracing_enabled(false);
    rows.push_back(traced);
    APPCLASS_ENSURES(traced_result.class_vector == serial_result.class_vector);
    APPCLASS_ENSURES(traced_result.confidences == serial_result.confidences);
    APPCLASS_ENSURES(traced_result.novelty == serial_result.novelty);
  }

  std::printf("%-14s %8s %10s %10s %14s\n", "mode", "threads", "snapshots",
              "seconds", "snapshots/sec");
  for (const auto& row : rows)
    std::printf("%-14s %8zu %10zu %10.4f %14.0f\n", row.mode.c_str(),
                row.threads, row.snapshots, row.seconds, row.per_sec());

  const double scalar_ps = rows[0].per_sec();
  const double blocked_ps = rows[1].per_sec();
  std::printf("\nk-d tree speedup over scalar: %.2fx\n",
              blocked_ps / scalar_ps);

  // Traced serial run vs untraced serial run (>1.0 = tracing costs time).
  double serial_seconds = 0.0;
  double traced_seconds = 0.0;
  for (const auto& row : rows) {
    if (row.mode == "pipeline" && row.threads == 1)
      serial_seconds = row.seconds;
    if (row.mode == "pipeline_traced") traced_seconds = row.seconds;
  }
  const double tracing_overhead =
      serial_seconds > 0.0 ? traced_seconds / serial_seconds : 0.0;
  std::printf("tracing overhead (traced/untraced serial): %.3fx\n",
              tracing_overhead);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"engine_throughput\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"kernel_speedup\": %.3f,\n", blocked_ps / scalar_ps);
  std::fprintf(out, "  \"tracing_overhead\": %.3f,\n", tracing_overhead);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"snapshots\": "
                 "%zu, \"seconds\": %.6f, \"snapshots_per_sec\": %.1f}%s\n",
                 row.mode.c_str(), row.threads, row.snapshots, row.seconds,
                 row.per_sec(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
