// Threaded classification must be bit-identical to serial — not "close",
// identical. The engine guarantees it structurally (fixed grain-based
// shard boundaries, per-slot writes, serial reductions); this suite
// proves it on the five canonical workloads across parallelism 1/2/8,
// for the batch pipeline, the fleet batch classifier, and the online
// fleet stream (pushed directly, and announced over a MetricBus).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "engine/fleet.hpp"
#include "metrics/snapshot.hpp"
#include "monitor/bus.hpp"
#include "persist/checkpoint.hpp"

namespace appclass {
namespace {

const std::vector<core::LabeledPool>& canonical_pools() {
  static const std::vector<core::LabeledPool> pools =
      core::collect_training_pools();
  return pools;
}

core::ClassificationPipeline trained(std::size_t parallelism) {
  core::PipelineOptions options;
  options.novelty_threshold = 2.5;  // exercise the novelty vector too
  options.parallelism = parallelism;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(canonical_pools());
  return pipeline;
}

void expect_identical(const core::ClassificationResult& serial,
                      const core::ClassificationResult& threaded) {
  // operator== on vectors/Matrix compares element bits for doubles —
  // exactly the claim under test.
  EXPECT_EQ(serial.class_vector, threaded.class_vector);
  EXPECT_EQ(serial.confidences, threaded.confidences);
  EXPECT_EQ(serial.novelty, threaded.novelty);
  EXPECT_EQ(serial.projected, threaded.projected);
  EXPECT_EQ(serial.application_class, threaded.application_class);
  EXPECT_EQ(serial.mean_confidence(), threaded.mean_confidence());
  EXPECT_EQ(serial.novel_fraction(), threaded.novel_fraction());
}

TEST(EngineDeterminism, ThreadedPipelineMatchesSerialOnCanonicalWorkloads) {
  const core::ClassificationPipeline serial = trained(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const core::ClassificationPipeline threaded = trained(threads);
    // Training itself must be deterministic first.
    EXPECT_EQ(serial.knn().training_points(), threaded.knn().training_points())
        << "threads=" << threads;
    for (const auto& lp : canonical_pools())
      expect_identical(serial.classify(lp.pool), threaded.classify(lp.pool));
  }
}

TEST(EngineDeterminism, SetParallelismDoesNotChangeResults) {
  core::ClassificationPipeline pipeline = trained(1);
  const auto baseline = pipeline.classify(canonical_pools()[0].pool);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{8}, std::size_t{1}}) {
    pipeline.set_parallelism(threads);
    expect_identical(baseline, pipeline.classify(canonical_pools()[0].pool));
  }
}

TEST(EngineDeterminism, BatchClassifierMatchesPerPoolSerialCalls) {
  const core::ClassificationPipeline serial = trained(1);
  const core::ClassificationPipeline pooled = trained(8);
  std::vector<metrics::DataPool> pools;
  for (const auto& lp : canonical_pools()) pools.push_back(lp.pool);

  const engine::BatchClassifier batch(pooled);
  const auto results = batch.classify_pools(pools);
  ASSERT_EQ(results.size(), pools.size());
  for (std::size_t p = 0; p < pools.size(); ++p)
    expect_identical(serial.classify(pools[p]), results[p]);
}

/// Canonical byte image of a classifier's full online state: windows,
/// debounce streaks, coverage and counters.
std::string online_image(const core::OnlineClassifier& online) {
  persist::CheckpointData data;
  data.options = online.options();
  data.online = online.export_state();
  return persist::encode_checkpoint(data);
}

TEST(EngineDeterminism, FleetStreamDrainMatchesObserveByObserve) {
  const core::ClassificationPipeline serial = trained(1);
  const core::ClassificationPipeline pooled = trained(8);

  // Reference: observe() snapshot by snapshot, recording change events.
  core::OnlineClassifier reference(serial);
  std::vector<core::BehaviourChange> reference_changes;
  reference.on_change([&](const core::BehaviourChange& change) {
    reference_changes.push_back(change);
  });

  engine::FleetStream stream(pooled);
  std::vector<core::BehaviourChange> stream_changes;
  stream.online().on_change([&](const core::BehaviourChange& change) {
    stream_changes.push_back(change);
  });
  // The serve path's announce leg: a stream attached to a MetricBus the
  // same snapshots are announced on, drained at the same points.
  engine::FleetStream bus_stream(pooled);
  monitor::MetricBus bus;
  bus_stream.attach(bus);

  // The canonical pools all come from one node IP; re-stamp pool r as
  // node 10.0.<r>.1 so the drain sees five distinct per-node streams.
  std::vector<std::vector<metrics::Snapshot>> nodes;
  std::vector<std::string> node_ips;
  for (const auto& lp : canonical_pools()) {
    node_ips.push_back("10.0." + std::to_string(nodes.size()) + ".1");
    nodes.emplace_back(lp.pool.snapshots().begin(),
                       lp.pool.snapshots().end());
    for (auto& snapshot : nodes.back()) snapshot.node_ip = node_ips.back();
  }

  // Interleave the five nodes' streams the way a bus would deliver them,
  // draining mid-stream at irregular points.
  std::size_t pushed = 0;
  const std::size_t longest = [&] {
    std::size_t n = 0;
    for (const auto& node : nodes) n = std::max(n, node.size());
    return n;
  }();
  for (std::size_t i = 0; i < longest; ++i) {
    for (const auto& node : nodes) {
      if (i >= node.size()) continue;
      reference.observe(node[i]);
      stream.push(node[i]);
      bus.announce(node[i]);
      ++pushed;
      if (pushed % 97 == 0) {
        stream.drain();
        bus_stream.drain();
      }
    }
  }
  stream.drain();
  bus_stream.drain();
  bus_stream.detach();
  EXPECT_EQ(stream.backlog(), 0u);
  EXPECT_EQ(reference.export_state().nodes.size(), node_ips.size());
  EXPECT_EQ(online_image(stream.online()), online_image(reference));
  EXPECT_EQ(online_image(bus_stream.online()), online_image(reference));

  EXPECT_EQ(stream.online().classified_count(), reference.classified_count());
  EXPECT_EQ(stream.online().abstained_count(), reference.abstained_count());
  ASSERT_EQ(stream_changes.size(), reference_changes.size());
  for (std::size_t i = 0; i < stream_changes.size(); ++i) {
    EXPECT_EQ(stream_changes[i].node_ip, reference_changes[i].node_ip);
    EXPECT_EQ(stream_changes[i].time, reference_changes[i].time);
    EXPECT_EQ(stream_changes[i].from, reference_changes[i].from);
    EXPECT_EQ(stream_changes[i].to, reference_changes[i].to);
  }
  for (const std::string& ip : node_ips) {
    EXPECT_EQ(stream.online().current_class(ip), reference.current_class(ip));
    EXPECT_EQ(stream.online().coverage(ip), reference.coverage(ip));
  }
}

}  // namespace
}  // namespace appclass
