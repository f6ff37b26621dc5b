// Fleet observability plane cost + end-to-end latency, written as
// BENCH_fleetobs.json for the CI artifact:
//
//   fleet_obs [--quick] [--out=BENCH_fleetobs.json]
//
// Three sections:
//
//   federation  what one coordinator scrape round costs: parse each
//               worker's Prometheus text, federate the snapshots, and
//               re-export the merged registry. This runs every
//               --fleet-scrape-every interval, so it must be cheap
//               relative to the period.
//   e2e         announce -> durable-ack and announce -> ingested
//               latency over a real loopback WorkerLink/IngestListener
//               pair, read back from the registry histograms the serve
//               path feeds (the /slo freshness SLI's raw distribution).
//   identity    the delivered payload stream is bit-identical with
//               tracing on and off — the observability plane is
//               observational by contract, and this is the guard.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/fnv1a.hpp"
#include "dist/ingest.hpp"
#include "dist/link.hpp"
#include "metrics/snapshot.hpp"
#include "monitor/wire.hpp"
#include "obs/export.hpp"
#include "obs/federate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

/// Synthetic per-worker registry shaped like a real worker's /metrics:
/// a few dozen counters, per-stage histograms, and a handful of gauges.
obs::RegistrySnapshot synthetic_worker_snapshot(int worker) {
  obs::MetricsRegistry reg;
  for (int c = 0; c < 32; ++c) {
    reg.counter("appclass_bench_counter_" + std::to_string(c),
                {{"shard", std::to_string(worker)}})
        .inc(static_cast<std::uint64_t>(1000 + 37 * c + worker));
  }
  for (int g = 0; g < 8; ++g) {
    reg.gauge("appclass_bench_gauge_" + std::to_string(g))
        .set(0.5 * g + 0.25 * worker);
  }
  for (int h = 0; h < 8; ++h) {
    obs::Histogram& hist = reg.histogram(
        "appclass_bench_stage_" + std::to_string(h) + "_seconds");
    for (int i = 0; i < 64; ++i)
      hist.observe(1e-6 * static_cast<double>(1 + i * (h + 1)));
  }
  return reg.snapshot();
}

/// Quantile estimate from cumulative-free bucket counts (same method as
/// the obs table exporter): upper bound of the bucket where the
/// cumulative count crosses q * total.
double bucket_quantile(const obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(h.count) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
    cumulative += h.bucket_counts[i];
    if (cumulative >= target)
      return i < h.bounds.size() ? h.bounds[i] : h.bounds.back();
  }
  return h.bounds.back();
}

metrics::Snapshot grid_snapshot(std::size_t i) {
  metrics::Snapshot s;
  s.time = static_cast<metrics::SimTime>(i * 5);  // sampling grid
  s.node_ip = "10.0.0." + std::to_string(1 + i % 8);
  s.set(metrics::MetricId::kCpuUser, 50.0 + static_cast<double>(i % 40));
  s.set(metrics::MetricId::kBytesIn, 1e5 + 13.0 * static_cast<double>(i));
  return s;
}

/// One loopback ingest pass: listener + link, `frames` sends + flush.
/// Returns the FNV hash of the delivered payload byte stream.
std::uint64_t run_ingest_pass(std::size_t frames) {
  std::uint64_t hash = common::kFnv1a64Offset;
  dist::IngestListener listener(
      {},
      [&hash](const metrics::Snapshot& s) {
        const auto bytes = monitor::encode_packet(s);
        hash = common::fnv1a64(bytes, hash);
        return true;
      },
      0);
  APPCLASS_ENSURES(listener.start());
  {
    dist::WorkerLink link("127.0.0.1", listener.port());
    for (std::size_t i = 0; i < frames; ++i) {
      obs::TraceSpan span("dist_announce");
      APPCLASS_ENSURES(link.send(grid_snapshot(i), span.context()));
    }
    APPCLASS_ENSURES(link.flush());
  }
  listener.stop();
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_fleetobs.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: fleet_obs [--quick] [--out=file.json]\n");
      return 2;
    }
  }

  // --- federation: one coordinator scrape round, end to end -------------
  constexpr int kWorkers = 4;
  std::vector<std::string> worker_texts;
  for (int w = 0; w < kWorkers; ++w)
    worker_texts.push_back(obs::to_prometheus(synthetic_worker_snapshot(w)));
  std::size_t scrape_bytes = 0;
  for (const auto& text : worker_texts) scrape_bytes += text.size();

  const int rounds = quick ? 200 : 2000;
  obs::BoundedLabelSet worker_labels(kWorkers + 1);
  std::size_t merged_bytes = 0;
  std::size_t merged_series = 0;
  const auto fed_t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<obs::FederationPart> parts;
    parts.reserve(worker_texts.size());
    for (std::size_t w = 0; w < worker_texts.size(); ++w) {
      auto parsed = obs::parse_prometheus(worker_texts[w]);
      APPCLASS_ENSURES(parsed.has_value());
      parts.push_back({std::to_string(w), std::move(*parsed)});
    }
    const obs::FederationResult merged =
        obs::federate_snapshots(parts, &worker_labels);
    APPCLASS_ENSURES(merged.dropped_series == 0);
    const std::string text = obs::to_prometheus(merged.merged);
    merged_bytes = text.size();
    merged_series = merged.merged.counters.size() +
                    merged.merged.gauges.size() +
                    merged.merged.histograms.size();
  }
  const double fed_seconds =
      std::chrono::duration<double>(Clock::now() - fed_t0).count();
  const double fed_us_per_round = 1e6 * fed_seconds / rounds;

  std::printf("federation: %d workers, %zu scrape bytes -> %zu merged "
              "series (%zu bytes): %.1f us/round over %d rounds\n",
              kWorkers, scrape_bytes, merged_series, merged_bytes,
              fed_us_per_round, rounds);

  // --- e2e: loopback announce -> durable-ack / -> ingested --------------
  const std::size_t frames = quick ? 2000 : 20000;
  obs::set_tracing_enabled(false);
  const std::uint64_t hash_off = run_ingest_pass(frames);
  const auto after_off = obs::MetricsRegistry::global().snapshot();
  const auto* durable =
      after_off.find_histogram("appclass_e2e_durable_ack_seconds");
  const auto* ingested =
      after_off.find_histogram("appclass_e2e_ingest_seconds");
  APPCLASS_ENSURES(durable != nullptr && durable->count >= frames);
  APPCLASS_ENSURES(ingested != nullptr && ingested->count >= frames);

  const auto print_hist = [](const char* name,
                             const obs::HistogramSnapshot& h) {
    std::printf("%-28s count %8llu  mean %8.1f us  p50 %8.1f us  "
                "p99 %8.1f us\n",
                name, static_cast<unsigned long long>(h.count),
                1e6 * h.mean(), 1e6 * bucket_quantile(h, 0.50),
                1e6 * bucket_quantile(h, 0.99));
  };
  print_hist("announce->durable-ack", *durable);
  print_hist("announce->ingested", *ingested);

  // --- identity: tracing must not change the delivered stream -----------
  obs::set_tracing_enabled(true);
  const std::uint64_t hash_on = run_ingest_pass(frames);
  obs::set_tracing_enabled(false);
  const bool bit_identical = hash_on == hash_off;
  APPCLASS_ENSURES(bit_identical);
  std::printf("payload stream tracing on/off: %s (fnv %016llx)\n",
              bit_identical ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(hash_off));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fleet_obs\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"federation\": {\"workers\": %d, \"rounds\": %d, "
                    "\"scrape_bytes\": %zu, \"merged_series\": %zu, "
                    "\"merged_bytes\": %zu, \"us_per_round\": %.2f},\n",
               kWorkers, rounds, scrape_bytes, merged_series, merged_bytes,
               fed_us_per_round);
  const auto hist_json = [&](const char* key,
                             const obs::HistogramSnapshot& h,
                             const char* tail) {
    std::fprintf(out,
                 "  \"%s\": {\"count\": %llu, \"mean_us\": %.2f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f},%s\n",
                 key, static_cast<unsigned long long>(h.count),
                 1e6 * h.mean(), 1e6 * bucket_quantile(h, 0.50),
                 1e6 * bucket_quantile(h, 0.99), tail);
  };
  hist_json("e2e_durable_ack", *durable, "");
  hist_json("e2e_ingest", *ingested, "");
  std::fprintf(out, "  \"frames\": %zu,\n", frames);
  std::fprintf(out, "  \"bit_identical\": %s\n}\n",
               bit_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
