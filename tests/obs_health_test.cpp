// Model-health observability primitives: bounded label cardinality, the
// PSI drift detector (determinism, hysteresis, stationary silence), the
// ModelHealth aggregator's scorecards, and the online classifier's
// per-node handles agreeing with the string-keyed record path.
#include "obs/health.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core_test_util.hpp"
#include "obs/cardinality.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"

namespace appclass {
namespace {

// ---------------------------------------------------------------- labels

TEST(BoundedLabelSet, AdmitsUpToBudgetThenOverflows) {
  obs::BoundedLabelSet labels(2);
  const std::string& a = labels.admit("a");
  const std::string& b = labels.admit("b");
  const std::string& c = labels.admit("c");
  EXPECT_EQ(a, "a");
  EXPECT_EQ(b, "b");
  EXPECT_EQ(c, "other");
  EXPECT_EQ(&c, &labels.overflow_label());
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.overflowed(), 1u);
  // Re-admitting a known value returns the same stored string.
  EXPECT_EQ(&labels.admit("a"), &a);
  // Overflowed values stay overflowed even after re-asking; the distinct
  // overflow count does not double-count them.
  EXPECT_EQ(labels.admit("c"), "other");
  EXPECT_EQ(labels.overflowed(), 1u);
}

TEST(BoundedLabelSet, ConcurrentAdmissionStaysBounded) {
  obs::BoundedLabelSet labels(8);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&labels, t] {
      for (int i = 0; i < 100; ++i)
        (void)labels.admit("node-" + std::to_string(t * 100 + i));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(labels.size(), 8u);
  EXPECT_EQ(labels.overflowed(), 400u - 8u);
}

// ----------------------------------------------------------------- drift

/// Deterministic pseudo-random stream (no global RNG state in tests).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  /// Uniform double in [0, 1).
  double next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state_ >> 11) /
           static_cast<double>(1ull << 53);
  }

 private:
  std::uint64_t state_;
};

/// Default-sized windows with a tighter rescore stride. The window/bins
/// ratio matters: stationary PSI noise has mean ~ (bins-1) * (1/window +
/// 1/reference_window) ~= 0.08 here, comfortably under the 0.25 fire
/// threshold; shrinking the window much further would make silence flaky.
obs::DriftOptions small_drift_options() {
  obs::DriftOptions options;
  options.reference_window = 256;
  options.window = 128;
  options.bins = 8;
  options.stride = 4;
  return options;
}

/// Feeds `n` 2-D samples centred at (x, y) with +-0.5 jitter.
void feed(obs::DriftDetector& detector, Lcg& rng, std::size_t n, double x,
          double y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double sample[2] = {x + rng.next() - 0.5, y + rng.next() - 0.5};
    detector.observe(sample);
  }
}

TEST(DriftDetector, StationaryStreamStaysSilent) {
  obs::DriftDetector detector(small_drift_options());
  Lcg rng(1);
  feed(detector, rng, 600, 0.0, 0.0);
  EXPECT_TRUE(detector.reference_ready());
  EXPECT_EQ(detector.events(), 0u);
  EXPECT_FALSE(detector.any_drifting());
  EXPECT_LT(detector.max_score(), detector.options().fire_threshold);
}

TEST(DriftDetector, PhaseChangeFiresOnceAndClearsWithHysteresis) {
  obs::DriftDetector detector(small_drift_options());
  std::size_t fired = 0;
  std::size_t fired_component = 99;
  detector.on_drift([&](std::size_t component, double score) {
    ++fired;
    fired_component = component;
    EXPECT_GE(score, detector.options().fire_threshold);
  });

  Lcg rng(2);
  feed(detector, rng, 450, 0.0, 0.0);  // reference + stable stream
  ASSERT_EQ(detector.events(), 0u);

  // Phase change on component 0 only: the x-cluster jumps far outside
  // the reference quantiles.
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 1u);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(fired_component, 0u);
  EXPECT_TRUE(detector.drifting(0));
  EXPECT_GE(detector.score(0), detector.options().fire_threshold);

  // Still drifted: no re-fire while in the drifting state (hysteresis).
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 1u);

  // Back to the reference distribution: the state clears...
  feed(detector, rng, 400, 0.0, 0.0);
  EXPECT_FALSE(detector.any_drifting());
  // ...and a second excursion fires a second event (rising edge again).
  feed(detector, rng, 200, 6.0, 0.0);
  EXPECT_EQ(detector.events(), 2u);
}

TEST(DriftDetector, SameStreamSameScoresAndEvents) {
  const auto run = [] {
    obs::DriftDetector detector(small_drift_options());
    Lcg rng(3);
    feed(detector, rng, 400, 0.0, 0.0);
    feed(detector, rng, 200, 4.0, -2.0);
    return std::make_tuple(detector.score(0), detector.score(1),
                           detector.events(), detector.samples_seen());
  };
  const auto first = run();
  const auto second = run();
  // Bit-identical, not approximately equal: the detector is a pure
  // function of the observed stream.
  EXPECT_EQ(first, second);
}

TEST(DriftDetector, ExplicitReferenceSkipsWarmup) {
  obs::DriftOptions options = small_drift_options();
  obs::DriftDetector detector(options);
  Lcg rng(4);
  std::vector<double> reference;
  reference.reserve(2 * options.reference_window);
  for (std::size_t i = 0; i < options.reference_window; ++i) {
    reference.push_back(rng.next() - 0.5);
    reference.push_back(rng.next() - 0.5);
  }
  detector.set_reference(reference, 2);
  EXPECT_TRUE(detector.reference_ready());
  // The stream never spends samples on warmup: a drifted stream fires as
  // soon as the sliding window fills.
  feed(detector, rng, options.window + options.stride, 7.0, 7.0);
  EXPECT_GE(detector.events(), 1u);
}

TEST(DriftDetector, JsonExposesComponentScores) {
  obs::DriftDetector detector(small_drift_options());
  Lcg rng(5);
  feed(detector, rng, 300, 1.0, 2.0);
  const std::string json = detector.to_json();
  EXPECT_NE(json.find("\"reference_ready\":true"), std::string::npos);
  EXPECT_NE(json.find("\"components\":["), std::string::npos);
  EXPECT_NE(json.find("\"component\":1"), std::string::npos);
}

// ---------------------------------------------------------------- health

obs::ModelHealthOptions small_health_options() {
  obs::ModelHealthOptions options;
  options.class_names = {"idle", "cpu", "io"};
  options.top_nodes = 2;
  options.novel_window = 4;
  options.drift = small_drift_options();
  return options;
}

obs::HealthSample make_sample(std::string_view node, std::size_t cls) {
  obs::HealthSample sample;
  sample.node_ip = node;
  sample.class_index = cls;
  sample.confidence = 1.0;
  sample.vote_margin = 1.0;
  return sample;
}

TEST(ModelHealth, PerClassAndPerNodeScorecards) {
  obs::ModelHealth health(small_health_options());
  health.record(make_sample("10.0.0.1", 1));
  health.record(make_sample("10.0.0.1", 1));
  health.record(make_sample("10.0.0.2", 2));

  EXPECT_EQ(health.samples(), 3u);
  const std::string classes = health.classes_json();
  EXPECT_NE(classes.find("\"total_samples\":3"), std::string::npos);
  EXPECT_NE(classes.find("\"class\":\"cpu\",\"samples\":2"),
            std::string::npos);
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"node\":\"10.0.0.1\",\"samples\":2"),
            std::string::npos);
  EXPECT_NE(nodes.find("\"last_class\":\"io\""), std::string::npos);
}

TEST(ModelHealth, NodeJsonEscapesControlCharacters) {
  // Node ips arrive unchecked off the wire (monitor/wire.cpp decodes
  // them verbatim), so a control byte must not make /nodes invalid JSON.
  obs::ModelHealth health(small_health_options());
  health.record(make_sample("bad\nip\x01", 0));
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"node\":\"bad\\nip\\u0001\""), std::string::npos)
      << nodes;
  for (const char c : nodes)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << nodes;
}

TEST(ModelHealth, NodeCardinalityIsBoundedIntoOther) {
  obs::ModelHealth health(small_health_options());  // top_nodes = 2
  health.record(make_sample("n1", 0));
  health.record(make_sample("n2", 0));
  health.record(make_sample("n3", 0));
  health.record(make_sample("n4", 0));
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"tracked\":2"), std::string::npos);
  EXPECT_NE(nodes.find("\"overflowed\":2"), std::string::npos);
  EXPECT_NE(nodes.find("\"node\":\"other\",\"samples\":2"),
            std::string::npos);
}

TEST(ModelHealth, DegradedNodeFlipsStatusTo503Verdict) {
  obs::ModelHealth health(small_health_options());
  health.record(make_sample("n1", 0));
  EXPECT_TRUE(health.status().healthy);

  obs::HealthSample degraded = make_sample("n2", 0);
  degraded.coverage = 0.25;
  degraded.degraded = true;
  degraded.abstained = true;
  health.record(degraded);

  const obs::ModelHealth::Status status = health.status();
  EXPECT_FALSE(status.healthy);
  EXPECT_EQ(status.degraded_nodes, 1u);
  EXPECT_NE(status.reason_json.find("\"status\":\"degraded\""),
            std::string::npos);
  EXPECT_NE(status.reason_json.find("\"node\":\"n2\""), std::string::npos);
  EXPECT_EQ(health.abstained(), 1u);

  // Recovery: the same node reporting healthy coverage clears the status.
  health.record(make_sample("n2", 0));
  EXPECT_TRUE(health.status().healthy);
}

TEST(ModelHealth, EveryDegradedOverflowedNodeCounts) {
  // Nodes n0..n7 keep their own cards; n8 and n9 share "other". Each
  // degraded overflowed node counts once, whichever of them records last.
  obs::ModelHealthOptions options = small_health_options();
  options.top_nodes = 8;
  obs::ModelHealth health(options);
  for (const char* node : {"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"})
    health.record(make_sample(node, 0));
  const obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("appclass_health_degraded_nodes");
  const auto degraded = [](std::string_view node) {
    obs::HealthSample sample = make_sample(node, 0);
    sample.coverage = 0.25;
    sample.degraded = sample.abstained = true;
    return sample;
  };
  const auto expect_degraded = [&](std::size_t count) {
    const obs::ModelHealth::Status status = health.status();
    EXPECT_EQ(status.degraded_nodes, count) << status.reason_json;
    EXPECT_EQ(gauge.value(), static_cast<double>(count));
    EXPECT_EQ(status.reason_json.find("\"node\":\"other\"") !=
                  std::string::npos,
              count > 0)
        << status.reason_json;
  };

  // Through handles, as the online classifier records.
  obs::ModelHealth::NodeHandle n8 = health.resolve("n8");
  obs::ModelHealth::NodeHandle n9 = health.resolve("n9");
  health.record(degraded("n8"), n8);
  expect_degraded(1);
  health.record(make_sample("n9", 0), n9);
  expect_degraded(1);
  health.record(degraded("n9"), n9);
  expect_degraded(2);
  health.record(degraded("n9"), n9);
  expect_degraded(2);
  // A handle resolved again (the classifier's state re-imported) finds
  // n8 degraded, so its recovery is counted once.
  n8 = health.resolve("n8");
  health.record(make_sample("n8", 0), n8);
  expect_degraded(1);
  health.record(make_sample("n8", 0), n8);
  expect_degraded(1);
  // By node ip, which resolves afresh on every sample, beside a handle
  // still held for the same node: either path sees the other's flips.
  health.record(degraded("n8"));
  expect_degraded(2);
  health.record(make_sample("n8", 0), n8);
  expect_degraded(1);
  health.record(degraded("n8"), n8);
  health.record(make_sample("n8", 0));
  health.record(make_sample("n9", 0), n9);
  expect_degraded(0);
  EXPECT_TRUE(health.status().healthy);
}

TEST(ModelHealth, NovelFractionTracksRollingWindow) {
  obs::ModelHealth health(small_health_options());  // novel_window = 4
  obs::HealthSample novel = make_sample("n1", 0);
  novel.novel = true;
  health.record(novel);
  health.record(novel);
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 1.0);
  health.record(make_sample("n1", 0));
  health.record(make_sample("n1", 0));
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 0.5);
  // Two more clean samples push the novel ones out of the window.
  health.record(make_sample("n1", 0));
  health.record(make_sample("n1", 0));
  EXPECT_DOUBLE_EQ(health.novel_fraction(), 0.0);
}

TEST(ModelHealth, SummaryLineIsOneLine) {
  obs::ModelHealth health(small_health_options());
  health.record(make_sample("n1", 1));
  const std::string line = health.summary_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("health: samples=1"), std::string::npos);
  EXPECT_NE(line.find("drift_events=0"), std::string::npos);
}

TEST(ModelHealth, DriftFeedReachesDetector) {
  obs::ModelHealth health(small_health_options());
  std::size_t fired = 0;
  health.on_drift([&](std::size_t, double) { ++fired; });
  Lcg rng(6);
  for (int i = 0; i < 450; ++i) {
    obs::HealthSample sample = make_sample("n1", 0);
    const double projected[2] = {rng.next() - 0.5, rng.next() - 0.5};
    sample.projected = projected;
    health.record(sample);
  }
  EXPECT_EQ(health.drift_events(), 0u);
  for (int i = 0; i < 250; ++i) {
    obs::HealthSample sample = make_sample("n1", 0);
    const double projected[2] = {8.0 + rng.next(), rng.next() - 0.5};
    sample.projected = projected;
    health.record(sample);
  }
  EXPECT_GE(health.drift_events(), 1u);
  EXPECT_EQ(fired, health.drift_events());
  EXPECT_NE(health.drift_json().find("\"drifting\":true"),
            std::string::npos);
}

// ------------------------------------------- handle path == string path

/// Every scorecard a scrape or a stats dump can read.
struct Scorecards {
  std::string nodes, classes, drift, status, summary;

  explicit Scorecards(const obs::ModelHealth& health)
      : nodes(health.nodes_json()),
        classes(health.classes_json()),
        drift(health.drift_json()),
        status(health.status().reason_json),
        summary(health.summary_line()) {}
};

void expect_same_scorecards(const Scorecards& handles,
                            const Scorecards& strings) {
  EXPECT_EQ(handles.nodes, strings.nodes);
  EXPECT_EQ(handles.classes, strings.classes);
  EXPECT_EQ(handles.drift, strings.drift);
  EXPECT_EQ(handles.status, strings.status);
  EXPECT_EQ(handles.summary, strings.summary);
}

TEST(ModelHealthHandles, HandlePathMatchesStringPath) {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());

  // Ten nodes against four cards: nodes 0-3 are admitted, 4-9 share
  // "other". Each node's class rotates every 20 steps. Blackouts make
  // nodes abstain (degraded) and recover: node 1 (admitted) and node 7
  // (overflowed) mid-run, node 2 (admitted) and node 9 (overflowed) at
  // the end, so both cards end degraded ("other" is degraded while any
  // overflowed node is).
  constexpr std::size_t kNodes = 10;
  constexpr std::size_t kSteps = 60;
  constexpr std::size_t kImportAt = 34;  // node 7 degraded in "other"
  constexpr std::size_t kReattachAt = 40;
  const auto absent = [](std::size_t node, std::size_t step) {
    switch (node) {
      case 1: return step >= 20 && step < 28;
      case 7: return step >= 25 && step < 33;
      case 2:
      case 9: return step >= 50 && step < 58;
      default: return false;
    }
  };
  const int d = core::OnlineOptions{}.sampling_interval_s;
  std::vector<metrics::Snapshot> stream;
  std::vector<std::size_t> step_begin;  // first stream index of each step
  for (std::size_t step = 0; step < kSteps; ++step) {
    step_begin.push_back(stream.size());
    for (std::size_t node = 0; node < kNodes; ++node) {
      if (absent(node, step)) continue;
      linalg::Rng rng(1000 * node + step);
      metrics::Snapshot snapshot = core::testing::synthetic_snapshot(
          core::class_from_index((node + step / 20) % core::kClassCount),
          rng, static_cast<metrics::SimTime>(step) * d);
      snapshot.node_ip = "10.0." + std::to_string(node) + ".1";
      stream.push_back(std::move(snapshot));
    }
  }
  step_begin.push_back(stream.size());

  obs::ModelHealthOptions options = core::make_health_options(8);
  options.top_nodes = 4;
  obs::Gauge& degraded_gauge =
      obs::MetricsRegistry::global().gauge("appclass_health_degraded_nodes");
  // The gauge is process-global and set on degraded flips only: poison
  // it before each aggregator's stretch, then it must read that
  // aggregator's recount.
  const auto expect_gauge_is_recount = [&](const obs::ModelHealth& health) {
    const std::size_t recount = health.status().degraded_nodes;
    EXPECT_EQ(degraded_gauge.value(), static_cast<double>(recount));
  };

  // Handle path: the online classifier resolves each node once. Its state
  // is re-imported mid-run (dropping the handles) and it is re-attached
  // to a fresh aggregator.
  obs::ModelHealth handles(options);
  obs::ModelHealth handles_after(options);
  {
    core::OnlineClassifier online(pipeline);
    online.attach_health(&handles);
    degraded_gauge.set(-1.0);
    for (std::size_t i = 0; i < step_begin[kReattachAt]; ++i) {
      if (i == step_begin[kImportAt]) online.import_state(online.export_state());
      online.observe(stream[i]);
    }
    expect_gauge_is_recount(handles);
    online.attach_health(&handles_after);
    degraded_gauge.set(-1.0);
    for (std::size_t i = step_begin[kReattachAt]; i < stream.size(); ++i)
      online.observe(stream[i]);
    expect_gauge_is_recount(handles_after);
  }

  // String path: the same evidence, each sample recorded by node ip. A
  // health-less classifier supplies the coverage and abstention verdicts.
  obs::ModelHealth strings(options);
  obs::ModelHealth strings_after(options);
  {
    core::OnlineClassifier mirror(pipeline);
    core::SnapshotBatch batch;
    degraded_gauge.set(-1.0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (i == step_begin[kReattachAt]) {
        expect_gauge_is_recount(strings);
        degraded_gauge.set(-1.0);
      }
      const metrics::Snapshot& snapshot = stream[i];
      pipeline.begin_snapshot_batch(batch, 1, /*detailed=*/true);
      pipeline.classify_snapshot_into(snapshot, batch, 0,
                                      *pipeline.acquire_scratch());
      const core::SnapshotClassification& detail = batch.detail(0);
      mirror.ingest(snapshot, detail);
      obs::HealthSample sample;
      sample.node_ip = snapshot.node_ip;
      sample.class_index = core::index_of(detail.label);
      sample.coverage = *mirror.coverage(snapshot.node_ip);
      sample.degraded = mirror.degraded(snapshot.node_ip);
      sample.abstained = sample.degraded;
      sample.confidence = detail.confidence;
      sample.vote_margin = detail.vote_margin;
      sample.novel = pipeline.novelty_threshold() > 0.0 &&
                     detail.novelty > pipeline.novelty_threshold();
      sample.projected = detail.projected;
      (i < step_begin[kReattachAt] ? strings : strings_after).record(sample);
    }
    expect_gauge_is_recount(strings_after);
  }

  expect_same_scorecards(Scorecards(handles), Scorecards(strings));
  expect_same_scorecards(Scorecards(handles_after), Scorecards(strings_after));
  // The stream reached both kinds of card on both aggregators.
  for (const obs::ModelHealth* health : {&handles, &handles_after}) {
    const std::string nodes = health->nodes_json();
    EXPECT_NE(nodes.find("\"tracked\":4"), std::string::npos) << nodes;
    EXPECT_NE(nodes.find("\"overflowed\":6"), std::string::npos) << nodes;
  }
  EXPECT_NE(Scorecards(handles_after).status.find("\"node\":\"other\""),
            std::string::npos);
}

}  // namespace
}  // namespace appclass
