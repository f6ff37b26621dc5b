// Trace-context propagation: span trees across pool workers, bit-identical
// classification, fleet drain, online observe and WAL bytes with tracing
// on/off, and histogram exemplars that are histogram observations.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "common/fs.hpp"
#include "core/online.hpp"
#include "core_test_util.hpp"
#include "engine/fleet.hpp"
#include "engine/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace appclass {
namespace {

/// RAII tracing toggle so a failing assertion cannot leave tracing on for
/// the rest of the binary.
struct ScopedTracing {
  ScopedTracing() { obs::set_tracing_enabled(true); }
  ~ScopedTracing() { obs::set_tracing_enabled(false); }
};

const obs::TraceEvent* find_span(const std::vector<obs::TraceEvent>& events,
                                 const std::string& name) {
  for (const auto& e : events)
    if (e.phase == obs::TraceEvent::Phase::kSpan && e.name == name)
      return &e;
  return nullptr;
}

/// A steady_clock reading in seconds, truncated to whole microseconds the
/// way the recorder stores a span's duration (the reading is an integral
/// nanosecond count, so rounding to ns first recovers it exactly).
std::int64_t truncated_us(double seconds) {
  return std::llround(seconds * 1e9) / 1000;
}

/// Small knobs so window/debounce state is non-trivial within a few
/// dozen snapshots.
constexpr core::OnlineOptions kOnline = {.sampling_interval_s = 1,
                                         .window = 6,
                                         .stability = 2,
                                         .min_coverage = 0.5};

/// On-grid snapshots over two nodes whose class changes every 7 steps.
std::vector<metrics::Snapshot> two_node_stream(std::size_t n) {
  linalg::Rng rng(99);
  std::vector<metrics::Snapshot> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto s = core::testing::synthetic_snapshot(
        core::class_from_index((i / 7) % core::kClassCount), rng,
        static_cast<metrics::SimTime>(i));
    s.node_ip = i % 3 == 0 ? "10.0.0.2" : "10.0.0.1";
    out.push_back(std::move(s));
  }
  return out;
}

/// Canonical byte image of a classifier's full online state.
std::string online_image(const core::OnlineClassifier& online) {
  persist::CheckpointData data;
  data.options = online.options();
  data.online = online.export_state();
  return persist::encode_checkpoint(data);
}

TEST(ObsTrace, SpanTreeAcrossWorkers) {
  // Parallelism 8 over a 600-snapshot pool (grain 256) forces the sharded
  // stages onto pool workers; the span tree must still parent correctly.
  core::PipelineOptions options;
  options.parallelism = 8;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kIo, 600, 42);

  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    (void)pipeline.classify(pool);
  }

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* root = find_span(events, "classify");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->context.trace_id, 0u);
  EXPECT_EQ(root->context.parent_span_id, 0u);

  // Every classify stage is a direct child of the classify root
  // (normalization is timed inside pca_project; preprocess is a train()
  // stage).
  std::map<std::string, const obs::TraceEvent*> stages;
  for (const char* name : {"pca_project", "knn_query", "vote"}) {
    const obs::TraceEvent* stage = find_span(events, name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->context.trace_id, root->context.trace_id) << name;
    EXPECT_EQ(stage->context.parent_span_id, root->context.span_id) << name;
    stages[name] = stage;
  }

  // Engine shards parent to the sharded stages (pca_project / knn_query),
  // whichever thread claimed and ran them.
  std::size_t shards = 0;
  for (const auto& e : events) {
    if (e.phase != obs::TraceEvent::Phase::kSpan || e.name != "engine_shard")
      continue;
    EXPECT_EQ(e.context.trace_id, root->context.trace_id);
    EXPECT_TRUE(e.context.parent_span_id ==
                    stages["pca_project"]->context.span_id ||
                e.context.parent_span_id ==
                    stages["knn_query"]->context.span_id);
    ++shards;
  }
  // 600 rows at grain 256 = 3 shards per sharded stage.
  EXPECT_GE(shards, 4u);

  // Structured attributes survive into the recorded events.
  bool saw_vote_margin = false;
  for (const auto& a : stages["vote"]->attrs)
    if (a.key == "vote_margin") saw_vote_margin = true;
  EXPECT_TRUE(saw_vote_margin);
  bool saw_k = false;
  for (const auto& a : stages["knn_query"]->attrs)
    if (a.key == "k") saw_k = true;
  EXPECT_TRUE(saw_k);
}

TEST(ObsTrace, CrossThreadParentingIsDeterministic) {
  engine::ThreadPool pool(2);
  obs::TraceRecorder::global().clear();
  std::uint64_t root_span_id = 0;
  std::uint64_t root_trace_id = 0;
  {
    ScopedTracing tracing;
    obs::TraceSpan root("test_root");
    root_span_id = root.context().span_id;
    root_trace_id = root.context().trace_id;
    // Both tasks block on the latch until both have started, so they are
    // guaranteed to run on two distinct threads.
    std::latch both_started(2);
    pool.parallel_for(2, [&](std::size_t) {
      both_started.arrive_and_wait();
      obs::TraceSpan task_span("pool_task");
    });
  }

  // `tasks` points into `events`, so the vector is a named local.
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::global().events();
  std::vector<const obs::TraceEvent*> tasks;
  for (const auto& e : events)
    if (e.name == "pool_task") tasks.push_back(&e);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_NE(tasks[0]->tid, tasks[1]->tid);
  for (const auto* t : tasks) {
    EXPECT_EQ(t->context.trace_id, root_trace_id);
    EXPECT_EQ(t->context.parent_span_id, root_span_id);
  }
}

TEST(ObsTrace, AmbientContextRestoredAfterSpan) {
  ScopedTracing tracing;
  EXPECT_FALSE(obs::current_trace_context().active());
  {
    obs::TraceSpan outer("outer");
    EXPECT_EQ(obs::current_trace_context().span_id,
              outer.context().span_id);
    {
      obs::TraceSpan inner("inner");
      EXPECT_EQ(inner.context().parent_span_id, outer.context().span_id);
      EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
    }
    EXPECT_EQ(obs::current_trace_context().span_id,
              outer.context().span_id);
  }
  EXPECT_FALSE(obs::current_trace_context().active());
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  obs::set_tracing_enabled(false);
  obs::TraceRecorder::global().clear();
  {
    obs::TraceSpan span("invisible");
    EXPECT_FALSE(span.recording());
    span.add_attr({"k", "v"});
  }
  EXPECT_EQ(obs::TraceRecorder::global().size(), 0u);
  EXPECT_FALSE(obs::current_trace_context().active());
}

TEST(ObsTrace, ClassificationBitIdenticalWithTracingOnAndOff) {
  core::PipelineOptions options;
  options.parallelism = 4;
  options.novelty_threshold = 2.5;  // the novelty vector too
  core::ClassificationPipeline pipeline(options);
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kCpu, 300, 9);

  obs::set_tracing_enabled(false);
  const core::ClassificationResult off = pipeline.classify(pool);
  core::ClassificationResult on;
  {
    ScopedTracing tracing;
    on = pipeline.classify(pool);
  }

  EXPECT_EQ(on.application_class, off.application_class);
  ASSERT_EQ(on.class_vector.size(), off.class_vector.size());
  for (std::size_t i = 0; i < on.class_vector.size(); ++i)
    EXPECT_EQ(on.class_vector[i], off.class_vector[i]) << i;
  ASSERT_EQ(on.confidences.size(), off.confidences.size());
  for (std::size_t i = 0; i < on.confidences.size(); ++i)
    EXPECT_EQ(on.confidences[i], off.confidences[i]) << i;
  EXPECT_EQ(on.novelty, off.novelty);
  ASSERT_EQ(on.projected.rows(), off.projected.rows());
  for (std::size_t r = 0; r < on.projected.rows(); ++r)
    for (std::size_t c = 0; c < on.projected.cols(); ++c)
      EXPECT_EQ(on.projected.at(r, c), off.projected.at(r, c));
}

TEST(ObsTrace, StageHistogramGainsExemplarReferencingTrace) {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  const metrics::DataPool pool =
      core::testing::synthetic_pool(core::ApplicationClass::kIo, 64, 3);

  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    (void)pipeline.classify(pool);
  }

  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  const auto* hist = snapshot.find_histogram("appclass_stage_seconds",
                                             {{"stage", "knn_query"}});
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->exemplar_trace_id, 0u);
  EXPECT_GE(hist->exemplar_value, 0.0);

  // The exemplar's trace id matches the recorded classify trace.
  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* root = find_span(events, "classify");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(hist->exemplar_trace_id, root->context.trace_id);

  // JSON export carries the exemplar; Prometheus text stays plain 0.0.4.
  const std::string json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"exemplar\""), std::string::npos);
  const std::string prom = obs::to_prometheus(snapshot);
  EXPECT_EQ(prom.find("exemplar"), std::string::npos);
}

TEST(ObsTrace, LogRecordsBecomeInstantEventsUnderActiveTrace) {
  obs::Logger::global().set_level(obs::LogLevel::kInfo);
  obs::Logger::global().set_sink([](const std::string&) {});
  obs::TraceRecorder::global().clear();
  std::uint64_t trace_id = 0;
  {
    ScopedTracing tracing;
    obs::TraceSpan span("logging_scope");
    trace_id = span.context().trace_id;
    APPCLASS_LOG_INFO("test.event", {"answer", 42});
  }
  obs::Logger::global().reset_sink();
  obs::Logger::global().set_level(obs::LogLevel::kOff);

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* instant = nullptr;
  for (const auto& e : events)
    if (e.phase == obs::TraceEvent::Phase::kInstant &&
        e.name == "test.event")
      instant = &e;
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->context.trace_id, trace_id);
  ASSERT_FALSE(instant->attrs.empty());
  EXPECT_EQ(instant->attrs[0].key, "log");
  EXPECT_NE(instant->attrs[0].value.find("answer=42"), std::string::npos);
}

TEST(ObsTrace, BoundSpanExemplarIsItsObservation) {
  obs::Histogram h({1.0});
  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    obs::TraceSpan span("exemplar_bound", &h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), h.exemplar_value());

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* event = find_span(events, "exemplar_bound");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(h.exemplar_trace_id(), event->context.trace_id);
  EXPECT_GE(event->dur_us, 2000);
  EXPECT_EQ(event->dur_us, truncated_us(h.sum()));
}

TEST(ObsTrace, PerItemExemplarIsThePerItemObservation) {
  obs::Histogram h({1.0});
  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    obs::TraceSpan span("exemplar_per_item", &h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    span.stop_per_item(50);
    // Kept on the recorded span, outside its timed region.
    span.add_attr({"items", 50});
  }
  ASSERT_EQ(h.count(), 50u);
  EXPECT_DOUBLE_EQ(h.exemplar_value() * 50, h.sum());

  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* event = find_span(events, "exemplar_per_item");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(h.exemplar_trace_id(), event->context.trace_id);
  EXPECT_EQ(event->dur_us, truncated_us(h.exemplar_value() * 50));
  ASSERT_EQ(event->attrs.size(), 1u);
  EXPECT_EQ(event->attrs[0].key, "items");
}

TEST(ObsTrace, FleetDrainHistogramCarriesTheDrainTrace) {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  engine::FleetStream stream(pipeline, kOnline);
  for (const auto& s : two_node_stream(40)) stream.push(s);

  obs::TraceRecorder::global().clear();
  {
    ScopedTracing tracing;
    ASSERT_EQ(stream.drain(), 40u);
  }

  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  const auto* hist = snapshot.find_histogram("appclass_stage_seconds",
                                             {{"stage", "fleet_drain"}});
  ASSERT_NE(hist, nullptr);
  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* drain = find_span(events, "fleet_drain");
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(hist->exemplar_trace_id, drain->context.trace_id);
  EXPECT_EQ(drain->dur_us, truncated_us(hist->exemplar_value));
}

TEST(ObsTrace, DrainAndObserveBitIdenticalWithTracingOnAndOff) {
  core::PipelineOptions options;
  options.parallelism = 4;
  core::ClassificationPipeline pipeline(options);
  pipeline.train(core::testing::synthetic_training());
  const auto snapshots = two_node_stream(300);

  // One drain series (uneven batches, sharded across the pool) and one
  // observe series, each into its own online state.
  const auto run = [&](bool traced) {
    std::optional<ScopedTracing> tracing;
    if (traced) tracing.emplace();
    engine::FleetStream stream(pipeline, kOnline);
    core::OnlineClassifier observed(pipeline, kOnline);
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      stream.push(snapshots[i]);
      (void)observed.observe(snapshots[i]);
      if (i % 37 == 36) (void)stream.drain();
    }
    (void)stream.drain();
    return std::pair{online_image(stream.online()), online_image(observed)};
  };
  const auto off = run(false);
  obs::TraceRecorder::global().clear();
  const auto on = run(true);

  const auto events = obs::TraceRecorder::global().events();
  EXPECT_NE(find_span(events, "fleet_drain"), nullptr);
  EXPECT_NE(find_span(events, "online_observe"), nullptr);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

TEST(ObsTrace, WalBytesIdenticalWithTracingOnAndOff) {
  char tmpl[] = "/tmp/appclass_trace_wal_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const auto snapshots = two_node_stream(60);

  // Small segments so the rotation fsync is exercised too.
  const auto write = [&](const std::string& wal_dir, bool traced) {
    std::optional<ScopedTracing> tracing;
    if (traced) tracing.emplace();
    persist::WalWriter wal(wal_dir, {.max_segment_bytes = 2048});
    for (const auto& s : snapshots) (void)wal.append(s);
  };
  write(dir + "/off", false);
  obs::TraceRecorder::global().clear();
  write(dir + "/on", true);

  const auto off = persist::wal_segments(dir + "/off");
  const auto on = persist::wal_segments(dir + "/on");
  ASSERT_GT(off.size(), 1u);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(std::filesystem::path(on[i]).filename(),
              std::filesystem::path(off[i]).filename());
    EXPECT_EQ(common::read_file_or_throw(on[i]),
              common::read_file_or_throw(off[i]))
        << off[i];
  }

  // Each fsync nests under the append that asked for it.
  const auto events = obs::TraceRecorder::global().events();
  const obs::TraceEvent* fsync = find_span(events, "wal_fsync");
  ASSERT_NE(fsync, nullptr);
  bool parented = false;
  for (const auto& e : events)
    if (e.name == "wal_append" &&
        e.context.span_id == fsync->context.parent_span_id)
      parented = true;
  EXPECT_TRUE(parented);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace appclass
