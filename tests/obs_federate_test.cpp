// Fleet federation: Prometheus text round-trip (export -> parse ->
// re-export is a fixed point), per-worker snapshot merging, and Chrome
// trace stitching. The fixed-point property is what makes federation
// composable: a Prometheus server scraping /fleet/metrics must see the
// same conformant dialect the workers emit.
#include "obs/federate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/cardinality.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {
namespace {

// Dyadic values only: %.9g / %g print them exactly, so byte-equality
// assertions exercise the format contract, not float-printing luck.
RegistrySnapshot sample_registry_snapshot() {
  MetricsRegistry reg;
  reg.counter("appclass_frames_total").inc(42);
  reg.counter("appclass_frames_total", {{"peer", "w1"}}).inc(7);
  reg.gauge("appclass_backlog").set(0.25);
  reg.gauge("appclass_backlog", {{"node", "a\\b\"c\nd"}}).set(-1.5);
  Histogram& h =
      reg.histogram("appclass_stage_seconds", {{"stage", "ingest"}},
                    {0.125, 0.5, 2.0});
  h.observe(0.0625);
  h.observe(0.25);
  h.observe(0.25);
  h.observe(4.0);
  return reg.snapshot();
}

TEST(ObsFederateParse, ExportParseReexportIsFixedPoint) {
  const RegistrySnapshot snapshot = sample_registry_snapshot();
  const std::string text = to_prometheus(snapshot);
  const auto parsed = parse_prometheus(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_prometheus(*parsed), text);
}

TEST(ObsFederateParse, RecoversValuesAndDecumulatesBuckets) {
  const RegistrySnapshot snapshot = sample_registry_snapshot();
  const auto parsed = parse_prometheus(to_prometheus(snapshot));
  ASSERT_TRUE(parsed.has_value());

  const auto* plain = parsed->find_counter("appclass_frames_total");
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->value, 42u);
  const auto* labeled =
      parsed->find_counter("appclass_frames_total", {{"peer", "w1"}});
  ASSERT_NE(labeled, nullptr);
  EXPECT_EQ(labeled->value, 7u);

  const auto* hist = parsed->find_histogram("appclass_stage_seconds",
                                            {{"stage", "ingest"}});
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->bounds, (std::vector<double>{0.125, 0.5, 2.0}));
  // Text carries cumulative buckets; the parse de-cumulates them back.
  EXPECT_EQ(hist->bucket_counts, (std::vector<std::uint64_t>{1, 2, 0, 1}));
  EXPECT_EQ(hist->count, 4u);
  EXPECT_DOUBLE_EQ(hist->sum, 0.0625 + 0.25 + 0.25 + 4.0);
}

TEST(ObsFederateParse, LabelValueEscapingRoundTrips) {
  const RegistrySnapshot snapshot = sample_registry_snapshot();
  const auto parsed = parse_prometheus(to_prometheus(snapshot));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->gauges.size(), 2u);
  // Sorted by labels: the labeled gauge follows the unlabeled one.
  EXPECT_EQ(parsed->gauges[0].value, 0.25);
  ASSERT_EQ(parsed->gauges[1].labels.size(), 1u);
  EXPECT_EQ(parsed->gauges[1].labels[0].second, "a\\b\"c\nd");
  EXPECT_EQ(parsed->gauges[1].value, -1.5);
}

TEST(ObsFederateParse, IgnoresHelpAndFreeComments) {
  const auto parsed = parse_prometheus(
      "# HELP appclass_x_total Something helpful.\n"
      "# a free-form comment\n"
      "# TYPE appclass_x_total counter\n"
      "appclass_x_total 5\n");
  ASSERT_TRUE(parsed.has_value());
  const auto* c = parsed->find_counter("appclass_x_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 5u);
}

TEST(ObsFederateParse, RejectsMalformedInputs) {
  const char* kBad[] = {
      // Sample without a declared family.
      "orphan 1\n",
      // Duplicate # TYPE for one family.
      "# TYPE a counter\n# TYPE a counter\na 1\n",
      // Duplicate series within one family.
      "# TYPE a counter\na 1\na 2\n",
      // Unrepresentable family kinds.
      "# TYPE a summary\n",
      "# TYPE a untyped\na 1\n",
      // Counter value must be an unsigned integer.
      "# TYPE a counter\na nope\n",
      // Unterminated label value.
      "# TYPE a counter\na{k=\"v} 1\n",
      // Histogram without the terminal +Inf bucket.
      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
      // Cumulative bucket counts must not decrease.
      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
      // Bucket bounds must ascend.
      "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
      // Bare sample named like a histogram family.
      "# TYPE h histogram\nh 3\n",
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(parse_prometheus(text).has_value()) << text;
  }
}

TEST(ObsFederateParse, IntegersAboveUint64MaxAreRejectedNotWrapped) {
  const auto counter = parse_prometheus(
      "# TYPE c counter\nc 18446744073709551615\n");
  ASSERT_TRUE(counter.has_value());
  ASSERT_EQ(counter->counters.size(), 1u);
  EXPECT_EQ(counter->counters[0].value, UINT64_MAX);

  const char* kOverflow[] = {
      "# TYPE c counter\nc 18446744073709551616\n",
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 18446744073709551616\n"
      "h_sum 1\nh_count 1\n",
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n"
      "h_count 18446744073709551616\n",
  };
  for (const char* text : kOverflow)
    EXPECT_FALSE(parse_prometheus(text).has_value()) << text;
}

RegistrySnapshot worker_snapshot(std::uint64_t frames, double backlog,
                                 std::vector<std::uint64_t> buckets,
                                 double sum, double exemplar_value,
                                 std::uint64_t exemplar_trace) {
  RegistrySnapshot s;
  s.counters.push_back({"appclass_frames_total", {}, frames});
  s.gauges.push_back({"appclass_backlog", {}, backlog});
  HistogramSnapshot h;
  h.name = "appclass_stage_seconds";
  h.bounds = {0.1, 1.0};
  h.bucket_counts = std::move(buckets);
  for (const std::uint64_t b : h.bucket_counts) h.count += b;
  h.sum = sum;
  h.exemplar_value = exemplar_value;
  h.exemplar_trace_id = exemplar_trace;
  s.histograms.push_back(std::move(h));
  return s;
}

TEST(ObsFederateMerge, SinglePartWithEmptyWorkerIsIdentity) {
  const RegistrySnapshot snapshot = sample_registry_snapshot();
  const FederationResult result = federate_snapshots({{"", snapshot}});
  EXPECT_EQ(result.dropped_series, 0u);
  EXPECT_EQ(to_prometheus(result.merged), to_prometheus(snapshot));
}

TEST(ObsFederateMerge, SumsCountersAndMergesHistogramBuckets) {
  const std::vector<FederationPart> parts = {
      {"0", worker_snapshot(3, 2.0, {1, 2, 3}, 1.5, 0.5, 7)},
      {"1", worker_snapshot(4, 5.0, {0, 1, 2}, 2.5, 2.0, 9)},
  };
  const FederationResult result = federate_snapshots(parts);
  EXPECT_EQ(result.dropped_series, 0u);

  const auto* frames = result.merged.find_counter("appclass_frames_total");
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->value, 7u);

  const auto* hist =
      result.merged.find_histogram("appclass_stage_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->bucket_counts, (std::vector<std::uint64_t>{1, 3, 5}));
  EXPECT_EQ(hist->count, 9u);
  EXPECT_DOUBLE_EQ(hist->sum, 4.0);
  // Slowest traced observation across the fleet keeps the exemplar.
  EXPECT_EQ(hist->exemplar_trace_id, 9u);
  EXPECT_DOUBLE_EQ(hist->exemplar_value, 2.0);
}

TEST(ObsFederateMerge, GaugesGainWorkerLabelPerPart) {
  const std::vector<FederationPart> parts = {
      {"0", worker_snapshot(1, 2.0, {0, 0, 0}, 0.0, 0.0, 0)},
      {"1", worker_snapshot(1, 5.0, {0, 0, 0}, 0.0, 0.0, 0)},
  };
  const FederationResult result = federate_snapshots(parts);
  ASSERT_EQ(result.merged.gauges.size(), 2u);
  EXPECT_EQ(result.merged.gauges[0].labels,
            (Labels{{"worker", "0"}}));
  EXPECT_EQ(result.merged.gauges[0].value, 2.0);
  EXPECT_EQ(result.merged.gauges[1].labels,
            (Labels{{"worker", "1"}}));
  EXPECT_EQ(result.merged.gauges[1].value, 5.0);
}

TEST(ObsFederateMerge, WorkerLabelOverflowCollapsesNotExplodes) {
  BoundedLabelSet workers(2);
  std::vector<FederationPart> parts;
  for (int i = 0; i < 4; ++i) {
    parts.push_back({std::to_string(i),
                     worker_snapshot(1, static_cast<double>(i),
                                     {0, 0, 0}, 0.0, 0.0, 0)});
  }
  const FederationResult result = federate_snapshots(parts, &workers);
  // Workers 2 and 3 collapse into one "other" series (last value wins)
  // instead of minting unbounded per-worker series.
  ASSERT_EQ(result.merged.gauges.size(), 3u);
  EXPECT_EQ(result.merged.gauges[0].labels, (Labels{{"worker", "0"}}));
  EXPECT_EQ(result.merged.gauges[1].labels, (Labels{{"worker", "1"}}));
  EXPECT_EQ(result.merged.gauges[2].labels, (Labels{{"worker", "other"}}));
  EXPECT_EQ(result.merged.gauges[2].value, 3.0);
  EXPECT_EQ(workers.overflowed(), 2u);
}

TEST(ObsFederateMerge, MismatchedHistogramBoundsDropNotCorrupt) {
  RegistrySnapshot drifted = worker_snapshot(1, 0.0, {1, 1, 1}, 3.0, 0, 0);
  drifted.histograms[0].bounds = {0.2, 2.0};  // schema drift
  const std::vector<FederationPart> parts = {
      {"0", worker_snapshot(1, 0.0, {4, 4, 4}, 6.0, 0, 0)},
      {"1", std::move(drifted)},
  };
  const FederationResult result = federate_snapshots(parts);
  EXPECT_EQ(result.dropped_series, 1u);
  const auto* hist =
      result.merged.find_histogram("appclass_stage_seconds");
  ASSERT_NE(hist, nullptr);
  // First part's schema survives untouched; the drifted part is dropped.
  EXPECT_EQ(hist->bounds, (std::vector<double>{0.1, 1.0}));
  EXPECT_EQ(hist->count, 12u);
}

TEST(ObsFederateChrome, ParsesEventsEpochAndDrops) {
  const auto trace = parse_chrome_trace(
      "{\"displayTimeUnit\":\"ms\",\"epochWallUs\":1000,"
      "\"droppedEvents\":2,\"traceEvents\":[\n"
      "{\"name\":\"span_a\",\"cat\":\"dist\",\"ph\":\"X\",\"pid\":9,"
      "\"tid\":3,\"ts\":10,\"dur\":5,"
      "\"args\":{\"peer\":\"w1\",\"bytes\":128}},\n"
      "{\"name\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":20,"
      "\"unknownKey\":[1,{\"x\":2}]}\n"
      "]}");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->epoch_wall_us, 1000);
  EXPECT_EQ(trace->dropped_events, 2u);
  ASSERT_EQ(trace->events.size(), 2u);
  const ChromeTraceEvent& span = trace->events[0];
  EXPECT_EQ(span.name, "span_a");
  EXPECT_EQ(span.ph, "X");
  EXPECT_EQ(span.ts, 10);
  ASSERT_TRUE(span.has_dur);
  EXPECT_EQ(span.dur, 5);
  // args keep raw JSON so numbers stay numbers on re-serialization.
  ASSERT_EQ(span.args.size(), 2u);
  EXPECT_EQ(span.args[0], (std::pair<std::string, std::string>{
                              "peer", "\"w1\""}));
  EXPECT_EQ(span.args[1],
            (std::pair<std::string, std::string>{"bytes", "128"}));
  EXPECT_EQ(trace->events[1].scope, "t");
}

TEST(ObsFederateChrome, RejectsTruncatedJson) {
  EXPECT_FALSE(parse_chrome_trace("{\"traceEvents\":[").has_value());
  EXPECT_FALSE(parse_chrome_trace("").has_value());
  EXPECT_FALSE(
      parse_chrome_trace("{\"traceEvents\":[{\"name\":1}]}").has_value());
}

TEST(ObsFederateChrome, NonIntegralOrOutOfRangeNumbersFailThePart) {
  const auto part = [](const char* event) {
    return TraceFleetPart{
        "worker", std::string("{\"traceEvents\":[{\"name\":\"e\",") +
                      event + "}]}"};
  };
  const std::vector<TraceFleetPart> parts = {
      part("\"ts\":1000"),
      part("\"ts\":1e30"),
      part("\"pid\":nan"),
      part("\"dur\":10.5"),
      part("\"tid\":9223372036854775808"),
  };
  const StitchResult result = stitch_chrome_traces(parts);
  EXPECT_EQ(result.parts_stitched, 1u);
  EXPECT_EQ(result.parts_failed, 4u);
}

TEST(ObsFederateChrome, StitchAssignsPidLanesAndAlignsEpochs) {
  const std::vector<TraceFleetPart> parts = {
      {"coordinator",
       "{\"epochWallUs\":1000000,\"traceEvents\":["
       "{\"name\":\"announce\",\"ph\":\"X\",\"pid\":11,\"tid\":1,"
       "\"ts\":10,\"dur\":4}]}"},
      {"worker-0",
       "{\"epochWallUs\":1000100,\"traceEvents\":["
       "{\"name\":\"ingest\",\"ph\":\"X\",\"pid\":22,\"tid\":1,"
       "\"ts\":5,\"dur\":3}]}"},
      {"worker-1", "not json at all"},
  };
  const StitchResult result = stitch_chrome_traces(parts);
  EXPECT_EQ(result.parts_stitched, 2u);
  EXPECT_EQ(result.parts_failed, 1u);
  EXPECT_EQ(result.events, 4u);  // 2 process_name records + 2 spans

  // The stitched document is itself a parseable Chrome trace.
  const auto merged = parse_chrome_trace(result.json);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->events.size(), 4u);

  const ChromeTraceEvent& lane0 = merged->events[0];
  EXPECT_EQ(lane0.ph, "M");
  EXPECT_EQ(lane0.name, "process_name");
  EXPECT_EQ(lane0.pid, 1);
  ASSERT_EQ(lane0.args.size(), 1u);
  EXPECT_EQ(lane0.args[0].second, "\"coordinator\"");
  EXPECT_EQ(merged->events[1].pid, 2);
  EXPECT_EQ(merged->events[1].args[0].second, "\"worker-0\"");

  // Part 0 holds the earliest epoch: its timestamps stay put. Part 1
  // started 100us later, so its events shift onto the shared axis.
  const ChromeTraceEvent& announce = merged->events[2];
  EXPECT_EQ(announce.name, "announce");
  EXPECT_EQ(announce.pid, 1);
  EXPECT_EQ(announce.ts, 10);
  const ChromeTraceEvent& ingest = merged->events[3];
  EXPECT_EQ(ingest.name, "ingest");
  EXPECT_EQ(ingest.pid, 2);
  EXPECT_EQ(ingest.ts, 105);
}

TEST(ObsFederateChrome, StitchKeepsEachPartsTruncation) {
  const std::vector<TraceFleetPart> parts = {
      {"coordinator",
       "{\"epochWallUs\":2000,\"droppedEvents\":3,\"traceEvents\":[]}"},
      {"worker-0",
       "{\"epochWallUs\":1000,\"droppedEvents\":4,\"traceEvents\":["
       "{\"name\":\"e\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":5}]}"},
  };
  const auto merged = parse_chrome_trace(stitch_chrome_traces(parts).json);
  ASSERT_TRUE(merged.has_value());
  // Both parts' cuts stay visible, on the earliest part's time axis.
  EXPECT_EQ(merged->dropped_events, 7u);
  EXPECT_EQ(merged->epoch_wall_us, 1000);
}

TEST(ObsFederateChrome, StitchWithoutEpochKeepsNativeTimestamps) {
  const std::vector<TraceFleetPart> parts = {
      {"legacy", "{\"traceEvents\":[{\"name\":\"e\",\"ph\":\"i\","
                 "\"pid\":1,\"tid\":1,\"ts\":42}]}"},
  };
  const auto merged = parse_chrome_trace(stitch_chrome_traces(parts).json);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->events.size(), 2u);
  EXPECT_EQ(merged->events[1].ts, 42);
}

}  // namespace
}  // namespace appclass::obs
