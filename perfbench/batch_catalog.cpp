// batch_catalog: offline re-classification of recorded runs. Every
// catalog program is profiled under several seeds (untimed), then the
// whole set is classified repeatedly with engine::BatchClassifier.
#include <algorithm>
#include <cstring>
#include <memory>
#include <span>

#include "common.hpp"
#include "core/serialize.hpp"
#include "engine/fleet.hpp"
#include "linalg/random.hpp"
#include "monitor/harness.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSeedsPerProgram = 4;
constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kSerialReps = 5;

// Pool workers. The calling thread runs pool tasks too while it waits in
// classify_pools, so 3 threads work in all and one of the 4 cores stays
// free. With 4 working threads the median call time moved by 20% between
// runs, as the host took time from one core or another.
constexpr std::size_t kPoolWorkers = 2;

std::vector<metrics::DataPool> profile_catalog(std::uint64_t seed) {
  std::vector<metrics::DataPool> pools;
  std::uint64_t index = 0;
  for (std::size_t s = 0; s < kSeedsPerProgram; ++s)
    for (const std::string& program : workloads::catalog_names()) {
      sim::TestbedOptions options;
      options.seed = linalg::derive_seed(seed, 1000 + index++);
      options.four_vms = false;
      sim::Testbed tb = sim::make_testbed(options);
      monitor::ClusterMonitor mon(*tb.engine);
      auto model = workloads::make_by_name(program, static_cast<int>(tb.vm4));
      const sim::InstanceId id = tb.engine->submit(tb.vm1, std::move(model));
      monitor::ProfiledRun run = monitor::profile_instance(*tb.engine, mon, id);
      if (!run.pool.empty()) pools.push_back(std::move(run.pool));
    }
  return pools;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_result(const core::ClassificationResult& a,
                 const core::ClassificationResult& b) {
  return a.class_vector == b.class_vector &&
         same_bits(a.confidences, b.confidences) &&
         same_bits(a.novelty, b.novelty) &&
         std::memcmp(&a.novelty_threshold, &b.novelty_threshold, sizeof(double)) == 0 &&
         same_bits(a.composition.fractions(), b.composition.fractions()) &&
         a.composition.samples() == b.composition.samples() &&
         a.application_class == b.application_class &&
         a.projected.rows() == b.projected.rows() &&
         a.projected.cols() == b.projected.cols() &&
         same_bits(a.projected.data(), b.projected.data());
}

core::ClassificationPipeline load_model(const std::string& path,
                                        std::size_t parallelism) {
  core::ClassificationPipeline pipeline = core::load_pipeline_file(path);
  pipeline.set_parallelism(parallelism);
  return pipeline;
}

/// The offline job's serving objects: the model on a thread pool and the
/// batch front end over it.
struct Job {
  Job(const std::string& model_path, std::size_t workers)
      : pipeline(load_model(model_path, workers)), batch(pipeline) {}
  core::ClassificationPipeline pipeline;
  engine::BatchClassifier batch;
};

}  // namespace

void run_batch_catalog(const Args& args, Result& result) {
  const std::string model_path = write_model(args.workdir, args.seed);
  const std::vector<metrics::DataPool> pools = profile_catalog(args.seed);
  std::size_t snapshots_per_call = 0;
  for (const auto& pool : pools) snapshots_per_call += pool.size();

  Tracer& tracer = Tracer::instance();
  const auto kCallSpan = tracer.name("engine.classify_pools", Layer::kEngine);
  const auto kPoolSpan = tracer.name("core.classify_pool", Layer::kCore);

  // One cold set-up: load the model, start the pool, build the front end.
  const auto cold_setup = [&model_path] {
    const std::int64_t t0 = thread_cpu_ns();
    const auto job = std::make_unique<Job>(model_path, kPoolWorkers);
    return static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
  };

  // Reference: the same pools classified serially.
  const core::ClassificationPipeline serial = load_model(model_path, 1);
  std::vector<core::ClassificationResult> expected;
  expected.reserve(pools.size());
  for (const auto& pool : pools) expected.push_back(serial.classify(pool));
  if (args.corrupt_reference) expected.front().confidences.front() += 1.0;

  Job job(model_path, kPoolWorkers);
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;
  // Warm-up call: thread pool and scratch reach their steady size.
  job.batch.classify_pools(pools);
  // The working threads: this one and the pool's workers, the only
  // threads of the process at this point.
  const std::vector<clockid_t> clocks = thread_clocks();
  if (clocks.size() != kPoolWorkers + 1)
    throw std::runtime_error("unexpected thread count in batch_catalog");

  // Calls classify_pools until `seconds` pass. Per call it records the
  // wall time, and the CPU time of the busiest working thread: the
  // call's duration had no thread lost its core to the host, which on a
  // shared host stretches single calls by different amounts from run to
  // run. The process CPU time of all calls is summed alongside.
  Samples call_ms;
  Samples busiest_ms;
  std::int64_t call_cpu_ns = 0;
  std::uint64_t timed_calls = 0;
  std::vector<std::int64_t> before(clocks.size());
  const auto timed = [&](double seconds, SpacedSetups* setups) {
    call_ms = Samples{};
    busiest_ms = Samples{};
    call_cpu_ns = 0;
    timed_calls = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      std::vector<core::ClassificationResult> results;
      for (std::size_t i = 0; i < clocks.size(); ++i) before[i] = clock_ns(clocks[i]);
      const std::int64_t cpu0 = process_cpu_ns();
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope span(kCallSpan, Tracer::id(0, calls));
        results = job.batch.classify_pools(pools);
      }
      call_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
      call_cpu_ns += process_cpu_ns() - cpu0;
      std::int64_t busiest = 0;
      for (std::size_t i = 0; i < clocks.size(); ++i)
        busiest = std::max(busiest, clock_ns(clocks[i]) - before[i]);
      busiest_ms.add(static_cast<double>(busiest) * 1e-6);
      ++calls;
      ++timed_calls;
      for (std::size_t i = 0; i < pools.size(); ++i)
        if (i >= results.size() || !same_result(results[i], expected[i]))
          ++mismatches;
      if (setups != nullptr) setups->poll(cold_setup);
    }
    return call_ms.median();
  };

  if (!args.trace) {
    SpacedSetups setups(kSetupReps, args.seconds);
    timed(args.seconds, &setups);
    setups.finish(cold_setup);
    result.set("setup_s", setups.median());
    // Per CPU-second of all working threads: host steal, which swings
    // wall time from run to run, is not CPU time of this process.
    result.set("snapshots_per_s",
               static_cast<double>(snapshots_per_call * timed_calls) /
                   (static_cast<double>(call_cpu_ns) * 1e-9));
    result.set("latency_p50_ms", busiest_ms.median());
  } else {
    const double parallel_call_ms = timed(args.seconds * 0.4, nullptr);
    tracer.enable(true);
    const double traced_call_ms = timed(args.seconds * 0.6, nullptr);
    result.set("bench.trace_overhead_pct",
               (traced_call_ms / parallel_call_ms - 1.0) * 100.0);
    // Serial pass: each pool alone on the calling thread.
    Samples pool_ms;
    Samples pass_ms;
    for (std::size_t rep = 0; rep < kSerialReps; ++rep) {
      double pass = 0.0;
      for (std::size_t i = 0; i < pools.size(); ++i) {
        std::int64_t ns = 0;
        {
          Tracer::Scope span(kPoolSpan, Tracer::id(0, i), &ns);
          const core::ClassificationResult r = serial.classify(pools[i]);
          if (!same_result(r, expected[i])) ++mismatches;
        }
        pool_ms.add(static_cast<double>(ns) * 1e-6);
        pass += static_cast<double>(ns) * 1e-6;
      }
      pass_ms.add(pass);
    }
    tracer.enable(false);
    result.set_quantile("core.classify_pool_ms_p50", pool_ms.median(), pool_ms.count());
    result.set_quantile("core.classify_pool_ms_p99", pool_ms.quantile(0.99), pool_ms.count());
    result.set("core.pool_ns_per_snapshot",
               pass_ms.median() * 1e6 / static_cast<double>(snapshots_per_call));
    result.set("engine.pool_efficiency",
               pass_ms.median() /
                   (parallel_call_ms * static_cast<double>(kPoolWorkers + 1)));
  }

  result.attempt(calls * pools.size());
  result.fail(mismatches, "parallel ClassificationResult != serial classify");
}

}  // namespace perfbench
