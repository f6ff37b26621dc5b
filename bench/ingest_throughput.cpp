// Streaming-ingest throughput of the zero-allocation announce→push→
// drain path (RCU bus + SnapshotRing + batched SoA classification),
// written as BENCH_ingest.json for the CI gate (docs/performance.md
// explains the fields).
//
//   ingest_throughput [--quick] [--out=BENCH_ingest.json]
//
// The fleet's final online state must be bit-identical to a reference
// OnlineClassifier fed serially with the labels classify(pool) assigns
// to the same on-grid snapshots, or the bench aborts (APPCLASS_ENSURES).
// Steady-state allocations per drained snapshot are measured with a
// global operator-new counter; the CI gate pins them to exactly zero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "engine/fleet.hpp"
#include "linalg/random.hpp"
#include "monitor/bus.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (same idiom as tests/engine_ingest_test.cpp):
// every operator-new form funnels through malloc with a relaxed count.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace {

using namespace appclass;
using Clock = std::chrono::steady_clock;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

double time_run(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Compact synthetic training set (the online hot path is dominated by
/// the transform chain and buffering, not the k-NN sweep, so a small
/// training set keeps the bench focused on the ingest machinery).
metrics::Snapshot synthetic_snapshot(core::ApplicationClass cls,
                                     linalg::Rng& rng, metrics::SimTime t) {
  using metrics::MetricId;
  metrics::Snapshot s;
  s.time = t;
  s.node_ip = "10.0.0.1";
  const auto jitter = [&](double v, double sigma) {
    return std::max(0.0, v + rng.normal(0.0, sigma));
  };
  switch (cls) {
    case core::ApplicationClass::kIdle:
      s.set(MetricId::kCpuSystem, jitter(0.5, 0.2));
      break;
    case core::ApplicationClass::kCpu:
      s.set(MetricId::kCpuUser, jitter(95.0, 2.0));
      s.set(MetricId::kCpuSystem, jitter(3.0, 1.0));
      break;
    case core::ApplicationClass::kIo:
      s.set(MetricId::kCpuSystem, jitter(20.0, 3.0));
      s.set(MetricId::kCpuUser, jitter(8.0, 2.0));
      s.set(MetricId::kIoBi, jitter(5000.0, 500.0));
      s.set(MetricId::kIoBo, jitter(5000.0, 500.0));
      break;
    case core::ApplicationClass::kNetwork:
      s.set(MetricId::kCpuSystem, jitter(15.0, 3.0));
      s.set(MetricId::kBytesIn, jitter(1.0e6, 1.0e5));
      s.set(MetricId::kBytesOut, jitter(2.0e7, 2.0e6));
      break;
    case core::ApplicationClass::kMemory:
      s.set(MetricId::kCpuSystem, jitter(15.0, 3.0));
      s.set(MetricId::kSwapIn, jitter(2500.0, 300.0));
      s.set(MetricId::kSwapOut, jitter(2500.0, 300.0));
      s.set(MetricId::kIoBi, jitter(2500.0, 300.0));
      s.set(MetricId::kIoBo, jitter(2500.0, 300.0));
      break;
  }
  return s;
}

std::vector<core::LabeledPool> synthetic_training(std::size_t per_class) {
  std::vector<core::LabeledPool> out;
  for (std::size_t c = 0; c < core::kClassCount; ++c) {
    linalg::Rng rng(7 + c);
    metrics::DataPool pool("10.0.0.1");
    for (std::size_t i = 0; i < per_class; ++i)
      pool.add(synthetic_snapshot(core::class_from_index(c), rng,
                                  static_cast<metrics::SimTime>(5 * i)));
    out.push_back(
        core::LabeledPool{std::move(pool), core::class_from_index(c)});
  }
  return out;
}

bool same_state(const core::OnlineStateImage& a,
                const core::OnlineStateImage& b) {
  if (a.classified != b.classified || a.abstained != b.abstained ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    if (x.node_ip != y.node_ip || x.window != y.window ||
        x.stable_class != y.stable_class || x.candidate != y.candidate ||
        x.candidate_streak != y.candidate_streak ||
        x.first_time != y.first_time || x.coverage != y.coverage)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strncmp(argv[i], "--out=", 6)) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: ingest_throughput [--quick] [--out=file.json]\n");
      return 2;
    }
  }
  bench::dump_registry_at_exit();

  core::ClassificationPipeline pipeline;
  pipeline.train(synthetic_training(20));

  // A fleet of stable nodes, each announcing its own class on the grid.
  // Snapshots are pre-generated: the measured region is purely the
  // announce→push→drain→ingest machinery.
  const std::size_t kNodes = 16;
  const std::size_t kPerCycle = 8;  // grid steps (= drains) per cycle
  const std::size_t cycles = quick ? 400 : 4000;
  const std::size_t warm_cycles = 20;
  core::OnlineOptions options;
  // Gmond's default cadence: every node announces once per second while
  // the classification grid samples every sampling_interval_s (5s), so
  // 4 of every 5 announcements are off-grid and filtered at push. Only
  // on-grid snapshots are drained and counted.
  const std::size_t kAnnouncesPerGrid =
      static_cast<std::size_t>(options.sampling_interval_s);

  std::vector<metrics::Snapshot> cycle_template;
  for (std::size_t s = 0; s < kPerCycle; ++s) {
    for (std::size_t node = 0; node < kNodes; ++node) {
      linalg::Rng rng(1000 + node * kPerCycle + s);
      metrics::Snapshot snapshot = synthetic_snapshot(
          core::class_from_index(node % core::kClassCount), rng, 0);
      snapshot.node_ip = "10.0." + std::to_string(node) + ".1";
      cycle_template.push_back(std::move(snapshot));
    }
  }
  const std::size_t per_drain = kNodes * kPerCycle;

  // Realistic bus fan-out: the announce stream feeds more than the
  // classifying fleet — a liveness watcher and a hot-I/O tap ride along.
  std::atomic<metrics::SimTime> last_seen{0};
  std::atomic<std::uint64_t> io_hot{0};

  // Drains run once per grid step: an online detector that buffers
  // several sampling periods before classifying would add that many
  // periods of behaviour-change latency.
  monitor::MetricBus bus;
  engine::FleetStream fleet(pipeline, options);
  fleet.attach(bus);
  bus.subscribe([&last_seen](const metrics::Snapshot& s) {
    last_seen.store(s.time, std::memory_order_relaxed);
  });
  bus.subscribe([&io_hot](const metrics::Snapshot& s) {
    if (s.get(metrics::MetricId::kIoBi) > 1000.0)
      io_hot.fetch_add(1, std::memory_order_relaxed);
  });
  // Cycle content is a pure function of the running clock: grid step s
  // re-announces row s of the template at time t.
  metrics::SimTime fleet_t = 0;
  const auto fleet_cycle = [&] {
    std::size_t drained = 0;
    for (std::size_t s = 0; s < kPerCycle; ++s) {
      for (std::size_t sub = 0; sub < kAnnouncesPerGrid; ++sub) {
        for (std::size_t node = 0; node < kNodes; ++node) {
          metrics::Snapshot& snapshot = cycle_template[s * kNodes + node];
          snapshot.time = fleet_t + static_cast<metrics::SimTime>(sub);
          bus.announce(snapshot);
        }
      }
      fleet_t += options.sampling_interval_s;
      drained += fleet.drain();
    }
    return drained;
  };

  for (std::size_t i = 0; i < warm_cycles; ++i) fleet_cycle();

  // Steady-state allocation probe: exact operator-new count across a
  // measured slice of warmed cycles.
  const std::size_t alloc_probe_cycles = 10;
  const std::uint64_t allocs_before = allocations();
  std::size_t probe_drained = 0;
  for (std::size_t i = 0; i < alloc_probe_cycles; ++i)
    probe_drained += fleet_cycle();
  const std::uint64_t alloc_delta = allocations() - allocs_before;
  const double allocs_per_snapshot =
      static_cast<double>(alloc_delta) / static_cast<double>(probe_drained);

  std::size_t fleet_drained = 0;
  const double fleet_seconds = time_run([&] {
    for (std::size_t i = 0; i < cycles; ++i) fleet_drained += fleet_cycle();
  });
  APPCLASS_ENSURES(fleet_drained == cycles * per_drain);
  fleet.detach();

  // --- Bit-identity: replay the same on-grid snapshots (one pool per
  // cycle, in push order) through the pool path, ingest its labels
  // serially, and compare final per-node online state with the fleet's.
  core::OnlineClassifier reference(pipeline, options);
  for (metrics::SimTime t = 0; t < fleet_t;) {
    metrics::DataPool pool;
    for (std::size_t s = 0; s < kPerCycle; ++s) {
      for (std::size_t node = 0; node < kNodes; ++node) {
        metrics::Snapshot snapshot = cycle_template[s * kNodes + node];
        snapshot.time = t;
        pool.add(std::move(snapshot));
      }
      t += options.sampling_interval_s;
    }
    const core::ClassificationResult result = pipeline.classify(pool);
    for (std::size_t i = 0; i < pool.size(); ++i)
      reference.ingest(pool[i], result.class_vector[i]);
  }
  const bool bit_identical =
      same_state(reference.export_state(), fleet.online().export_state());
  APPCLASS_ENSURES(bit_identical);

  const double fleet_ps = static_cast<double>(fleet_drained) / fleet_seconds;

  std::printf("%-22s %12s %10s %14s\n", "path", "snapshots", "seconds",
              "snapshots/sec");
  std::printf("%-22s %12zu %10.4f %14.0f\n", "ring(zero-alloc)",
              fleet_drained, fleet_seconds, fleet_ps);
  std::printf("steady-state allocations per drained snapshot: %.4f "
              "(%llu allocations / %zu snapshots)\n",
              allocs_per_snapshot,
              static_cast<unsigned long long>(alloc_delta), probe_drained);
  std::printf("online state bit-identical to pool-path reference: %s\n",
              bit_identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"ingest_throughput\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"snapshots_per_sec_ring\": %.1f,\n", fleet_ps);
  std::fprintf(out, "  \"steady_state_allocs_per_snapshot\": %.4f,\n",
               allocs_per_snapshot);
  std::fprintf(out, "  \"steady_state_alloc_count\": %llu,\n",
               static_cast<unsigned long long>(alloc_delta));
  std::fprintf(out, "  \"alloc_probe_snapshots\": %zu,\n", probe_drained);
  std::fprintf(out, "  \"bit_identical\": %s\n", bit_identical ? "true"
                                                               : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
