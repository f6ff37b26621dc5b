#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "core_test_util.hpp"
#include "counting_allocator.hpp"
#include "obs/metrics.hpp"

namespace appclass::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { pipeline_.train(testing::synthetic_training()); }
  ClassificationPipeline pipeline_;
};

TEST_F(PipelineTest, TrainedStateAndDimensions) {
  EXPECT_TRUE(pipeline_.trained());
  EXPECT_EQ(pipeline_.pca().components(), 2u);
  EXPECT_EQ(pipeline_.knn().dimension(), 2u);
  EXPECT_EQ(pipeline_.knn().training_size(), 5u * 40u);
}

TEST_F(PipelineTest, ClassifiesEachSyntheticClassCorrectly) {
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto cls = class_from_index(c);
    const auto pool = testing::synthetic_pool(cls, 30, 100 + c);
    const auto result = pipeline_.classify(pool);
    EXPECT_EQ(result.application_class, cls)
        << "expected " << to_string(cls) << " got "
        << to_string(result.application_class);
    EXPECT_GT(result.composition.fraction(cls), 0.8);
  }
}

TEST_F(PipelineTest, ClassVectorLengthMatchesPool) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kIo, 17, 9);
  const auto result = pipeline_.classify(pool);
  EXPECT_EQ(result.class_vector.size(), 17u);
  EXPECT_EQ(result.projected.rows(), 17u);
  EXPECT_EQ(result.projected.cols(), 2u);
  EXPECT_EQ(result.composition.samples(), 17u);
}

TEST_F(PipelineTest, CompositionMatchesClassVector) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kCpu, 25, 10);
  const auto result = pipeline_.classify(pool);
  std::size_t cpu_count = 0;
  for (auto c : result.class_vector)
    cpu_count += (c == ApplicationClass::kCpu);
  EXPECT_DOUBLE_EQ(result.composition.fraction(ApplicationClass::kCpu),
                   static_cast<double>(cpu_count) / 25.0);
}

TEST_F(PipelineTest, OnlineSnapshotMatchesBatch) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kNetwork, 10, 11);
  const auto batch = pipeline_.classify(pool);
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(pipeline_.classify(pool[i]), batch.class_vector[i]);
}

TEST_F(PipelineTest, ProjectMatchesClassifyProjection) {
  const auto pool = testing::synthetic_pool(ApplicationClass::kMemory, 8, 12);
  const auto proj = pipeline_.project(pool);
  const auto result = pipeline_.classify(pool);
  // Two paths computing one quantity: the Matrix transforms and the
  // per-snapshot routine agree bit for bit.
  EXPECT_TRUE(proj == result.projected);
}

TEST_F(PipelineTest, MixedPoolYieldsMixedComposition) {
  metrics::DataPool mixed("10.0.0.1");
  linalg::Rng rng(13);
  for (int i = 0; i < 30; ++i)
    mixed.add(testing::synthetic_snapshot(
        i < 20 ? ApplicationClass::kIo : ApplicationClass::kIdle, rng,
        5 * i));
  const auto result = pipeline_.classify(mixed);
  EXPECT_EQ(result.application_class, ApplicationClass::kIo);
  EXPECT_NEAR(result.composition.fraction(ApplicationClass::kIo), 2.0 / 3.0,
              0.15);
  EXPECT_NEAR(result.composition.fraction(ApplicationClass::kIdle), 1.0 / 3.0,
              0.15);
}

// --- classify(pool) known answer --------------------------------------------

/// 60 snapshots cycling through the five classes; every fourth is the
/// midpoint of its class and the class two steps on, so the pool holds
/// ambiguous neighbourhoods and novel points besides the clean clusters.
metrics::DataPool known_answer_pool() {
  linalg::Rng rng(2024);
  metrics::DataPool pool("10.0.0.1");
  for (std::size_t i = 0; i < 60; ++i) {
    const auto time = static_cast<metrics::SimTime>(5 * i);
    metrics::Snapshot s =
        testing::synthetic_snapshot(class_from_index(i % 5), rng, time);
    if (i % 4 == 3) {
      const metrics::Snapshot other = testing::synthetic_snapshot(
          class_from_index((i + 2) % 5), rng, time);
      for (std::size_t k = 0; k < s.values.size(); ++k)
        s.values[k] = (s.values[k] + other.values[k]) / 2.0;
    }
    pool.add(std::move(s));
  }
  return pool;
}

std::uint64_t digest(std::span<const double> values, std::uint64_t hash) {
  return common::fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size_bytes()),
      hash);
}

/// Class indices as digits, one per snapshot.
std::string class_digits(const std::vector<ApplicationClass>& classes) {
  std::string out;
  for (const ApplicationClass c : classes)
    out.push_back(static_cast<char>('0' + index_of(c)));
  return out;
}

TEST(PipelineKnownAnswer, ClassifyPoolOutputIsPinned) {
  struct Expected {
    DistanceMetric metric;
    const char* classes;
    ApplicationClass application_class;
    std::uint64_t digest;
  };
  const Expected cases[] = {
      {DistanceMetric::kEuclidean,
       "012340113403234212310123401034032342123401234010340123421234",
       ApplicationClass::kNetwork, 0xa2202b1bd3d9d574ULL},
      {DistanceMetric::kManhattan,
       "012340103403234212310123401034032342123401234010340123421234",
       ApplicationClass::kNetwork, 0xc1006b7bc2c38c16ULL},
  };
  const metrics::DataPool pool = known_answer_pool();
  for (const Expected& expected : cases) {
    for (const std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "metric=" << static_cast<int>(expected.metric)
                   << " parallelism=" << parallelism);
      PipelineOptions options;
      options.knn.metric = expected.metric;
      options.novelty_threshold = 3.0;
      options.parallelism = parallelism;
      ClassificationPipeline pipeline(options);
      pipeline.train(testing::synthetic_training());
      const ClassificationResult result = pipeline.classify(pool);

      EXPECT_EQ(class_digits(result.class_vector), expected.classes);
      EXPECT_EQ(result.application_class, expected.application_class);
      std::uint64_t hash = common::kFnv1a64Offset;
      hash = digest(result.confidences, hash);
      hash = digest(result.novelty, hash);
      hash = digest(result.projected.data(), hash);
      hash = digest(result.composition.fractions(), hash);
      EXPECT_EQ(hash, expected.digest) << std::hex << "0x" << hash;
    }
  }
}

// --- classify(pool) allocations ---------------------------------------------

TEST(PipelineAllocations, ClassifyPoolAllocationCountIsSizeIndependent) {
  // Serial context: every allocation of a classify(pool) call is made on
  // this thread, and none may scale with the pool's snapshot count.
  for (const double novelty_threshold : {0.0, 3.0}) {
    PipelineOptions options;
    options.novelty_threshold = novelty_threshold;
    ClassificationPipeline pipeline(options);
    pipeline.train(testing::synthetic_training());
    std::vector<std::uint64_t> counts;
    for (const std::size_t size :
         {std::size_t{60}, std::size_t{600}, std::size_t{2000}}) {
      const auto pool = testing::synthetic_pool(
          ApplicationClass::kIo, size, static_cast<std::uint64_t>(size));
      (void)pipeline.classify(pool);  // warm-up: scratch, metrics singletons
      const std::uint64_t before = allocations();
      const ClassificationResult result = pipeline.classify(pool);
      counts.push_back(allocations() - before);
      ASSERT_EQ(result.class_vector.size(), size);
    }
    SCOPED_TRACE(::testing::Message()
                 << "novelty_threshold=" << novelty_threshold);
    EXPECT_EQ(counts[1], counts[0]);
    EXPECT_EQ(counts[2], counts[0]);
  }
}

TEST(Pipeline, CustomMetricSelection) {
  PipelineOptions options;
  options.selected_metrics = {metrics::MetricId::kCpuUser,
                              metrics::MetricId::kIoBi};
  options.pca.forced_components = 1;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  EXPECT_EQ(pipeline.preprocessor().dimension(), 2u);
  EXPECT_EQ(pipeline.pca().components(), 1u);
  // CPU vs IO are still separable on those two metrics alone.
  const auto cpu = testing::synthetic_pool(ApplicationClass::kCpu, 20, 55);
  EXPECT_EQ(pipeline.classify(cpu).application_class, ApplicationClass::kCpu);
}

TEST(Pipeline, VarianceThresholdPathSelectsComponents) {
  PipelineOptions options;
  options.pca.forced_components = 0;
  options.pca.min_fraction_variance = 0.55;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  EXPECT_GE(pipeline.pca().components(), 1u);
  EXPECT_GE(pipeline.pca().captured_variance(), 0.55);
}

// The registry is process-global and other tests in this binary also
// classify, so all observability assertions work on before/after deltas.
TEST(PipelineObservability, TrainAndClassifyPopulateStageHistograms) {
  auto& registry = obs::MetricsRegistry::global();
  // Each lookup holds its snapshot in a named local: the found pointer
  // points into it.
  const auto hist_count = [&](const char* stage) -> std::uint64_t {
    const obs::RegistrySnapshot snapshot = registry.snapshot();
    const auto* h = snapshot.find_histogram("appclass_stage_seconds",
                                            {{"stage", stage}});
    return h ? h->count : 0;
  };
  const auto counter_value = [&](const char* name) -> std::uint64_t {
    const obs::RegistrySnapshot snapshot = registry.snapshot();
    const auto* c = snapshot.find_counter(name);
    return c ? c->value : 0;
  };

  const std::uint64_t preprocess0 = hist_count("preprocess");
  const std::uint64_t pca_fit0 = hist_count("pca_fit");
  const std::uint64_t pca_project0 = hist_count("pca_project");
  const std::uint64_t knn0 = hist_count("knn_query");
  const std::uint64_t vote0 = hist_count("vote");
  const std::uint64_t trains0 = counter_value("appclass_pipeline_train_total");
  const std::uint64_t snaps0 =
      counter_value("appclass_pipeline_snapshots_classified_total");

  ClassificationPipeline pipeline;
  pipeline.train(testing::synthetic_training());
  const auto pool = testing::synthetic_pool(ApplicationClass::kCpu, 23, 7);
  const auto result = pipeline.classify(pool);
  ASSERT_EQ(result.class_vector.size(), 23u);

  // Every stage histogram gained observations...
  EXPECT_GT(hist_count("preprocess"), preprocess0);
  EXPECT_GT(hist_count("pca_fit"), pca_fit0);
  EXPECT_GT(hist_count("pca_project"), pca_project0);
  EXPECT_GT(hist_count("vote"), vote0);
  // ...and knn_query advanced by exactly one count per snapshot.
  EXPECT_EQ(hist_count("knn_query"), knn0 + 23u);
  EXPECT_EQ(counter_value("appclass_pipeline_train_total"), trains0 + 1u);
  EXPECT_EQ(counter_value("appclass_pipeline_snapshots_classified_total"),
            snaps0 + 23u);

  // The per-snapshot (online) path counts snapshots too.
  const std::uint64_t snaps1 =
      counter_value("appclass_pipeline_snapshots_classified_total");
  (void)pipeline.classify(pool[0]);
  EXPECT_EQ(counter_value("appclass_pipeline_snapshots_classified_total"),
            snaps1 + 1u);
}

TEST(PipelineObservability, ScratchOverflowLeaseIsCounted) {
  const obs::Counter& overflows = obs::MetricsRegistry::global().counter(
      "appclass_pipeline_scratch_overflows_total");
  const std::uint64_t before = overflows.value();
  SnapshotScratchPool pool(3);
  std::vector<SnapshotScratchPool::Lease> held;
  held.reserve(4);
  for (int i = 0; i < 3; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(overflows.value(), before);  // every slot leased, none spilled
  held.push_back(pool.acquire());
  EXPECT_EQ(overflows.value(), before + 1);
}

TEST(Pipeline, LargerKStillSeparatesCleanClusters) {
  PipelineOptions options;
  options.knn.k = 9;
  ClassificationPipeline pipeline(options);
  pipeline.train(testing::synthetic_training());
  const auto net = testing::synthetic_pool(ApplicationClass::kNetwork, 15, 77);
  EXPECT_EQ(pipeline.classify(net).application_class,
            ApplicationClass::kNetwork);
}

}  // namespace
}  // namespace appclass::core
