// Drift-detector cost on the streaming classification path, written as
// BENCH_health.json for the CI gate (drift_ns_per_sample must stay
// <= 32 ns, 2% of the ~1.6 us/sample classify cost the gate was first
// calibrated against).
//
//   health_overhead [--quick] [--out=BENCH_health.json]
//
// The detector is timed directly: a tight loop feeds it the PCA
// coordinates of a re-stamped canonical announcement stream, the same
// work per sample the attached detector does inside ModelHealth::record().
// Estimating a ~1% delta as the ratio of two large noisy end-to-end
// totals would amplify machine noise ~100x; the direct loop's minimum
// over reps is stable to a few ns. The rest of model health is priced
// by perfbench's obs.health_ingest_ns, and its observational contract
// by HealthPipelineTest.HealthLayerIsObservationallyTransparent.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/online.hpp"
#include "core/robustness.hpp"
#include "core/trainer.hpp"
#include "obs/drift.hpp"

int main(int argc, char** argv) {
  using namespace appclass;
  bool quick = false;
  std::string out_path = "BENCH_health.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: health_overhead [--quick] [--out=file.json]\n");
      return 2;
    }
  }
  bench::dump_registry_at_exit();

  core::PipelineOptions pipeline_options;
  pipeline_options.novelty_threshold = 2.5;
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline(pipeline_options);
  const auto runs = core::record_canonical_runs();

  // One long grid-aligned stream cycling all five canonical workloads
  // across five node IPs, so the detector sees every class's region.
  const std::size_t total = quick ? 50000 : 200000;
  std::vector<metrics::Snapshot> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto& run = runs[i % runs.size()];
    metrics::Snapshot snapshot =
        run.announcements[(i / runs.size()) % run.announcements.size()];
    snapshot.time = static_cast<metrics::SimTime>(i / runs.size()) * 5;
    snapshot.node_ip = "10.0.0." + std::to_string(1 + i % runs.size());
    stream.push_back(snapshot);
  }

  // The stream's own projected rows, as the detailed batch hands them to
  // the attached detector.
  core::SnapshotBatch batch;
  pipeline.begin_snapshot_batch(batch, stream.size(), /*detailed=*/true);
  {
    auto scratch = pipeline.acquire_scratch();
    for (std::size_t i = 0; i < stream.size(); ++i)
      pipeline.classify_snapshot_into(stream[i], batch, i, *scratch);
  }
  const std::size_t components = pipeline.pca().components();
  std::vector<double> projected_rows;
  projected_rows.reserve(stream.size() * components);
  for (std::size_t i = 0; i < stream.size(); ++i)
    projected_rows.insert(projected_rows.end(),
                          batch.detail(i).projected.begin(),
                          batch.detail(i).projected.end());

  // One stream pass through the bare detector is ~1 ms — too short to
  // time against scheduler noise — so each timed rep replays the rows
  // several times and reports per-pass seconds. Noise on a shared
  // machine is strictly additive, so the fastest rep is the closest
  // observation of the true cost.
  constexpr int kReps = 9;
  constexpr int kDriftPasses = 8;
  double drift_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::DriftDetector detector(core::make_health_options().drift);
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kDriftPasses; ++pass)
      for (std::size_t i = 0; i < stream.size(); ++i)
        detector.observe(std::span<const double>(
            projected_rows.data() + i * components, components));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() /
        kDriftPasses;
    drift_seconds = rep == 0 ? seconds : std::min(drift_seconds, seconds);
  }
  const double drift_ns_per_sample =
      1e9 * drift_seconds / static_cast<double>(stream.size());
  std::printf("drift detector: %.1f ns/sample over %zu samples\n",
              drift_ns_per_sample, stream.size());

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"health_overhead\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"samples\": %zu,\n", stream.size());
  std::fprintf(out, "  \"drift_ns_per_sample\": %.2f\n}\n",
               drift_ns_per_sample);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
