// stream_fleet: the single-process online serve path. 4,096 nodes
// announce at 1 Hz on a MetricBus; one FleetStream (ModelHealth attached,
// parallelism 1, as `serve` configures it) buffers the grid-aligned
// snapshots and is drained once per 5 s grid step.
#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/serialize.hpp"
#include "engine/fleet.hpp"
#include "monitor/bus.hpp"
#include "obs/health.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 4096;
constexpr std::size_t kSetupReps = 31;
// Enough grid steps for every node's 12-sample window to fill, so the
// timed steps see steady-state node state.
constexpr std::size_t kWarmupSteps = 16;

core::ClassificationPipeline load_model(const std::string& path) {
  core::ClassificationPipeline pipeline = core::load_pipeline_file(path);
  pipeline.set_parallelism(1);
  return pipeline;
}

/// The serving objects `serve` builds in single-process mode.
struct Serving {
  explicit Serving(const std::string& model_path)
      : pipeline(load_model(model_path)),
        health(core::make_health_options()),
        stream(pipeline, core::OnlineOptions{}) {
    stream.online().attach_health(&health);
    stream.attach(bus);
  }
  ~Serving() { stream.detach(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  core::ClassificationPipeline pipeline;
  monitor::MetricBus bus;
  obs::ModelHealth health;
  engine::FleetStream stream;
};

/// Side pass of the traced run: the drain's work redone on the same
/// grid snapshots with the benchmark's own instances, one public call at
/// a time, so the drain can be split into core and obs shares.
struct SidePass {
  explicit SidePass(const core::ClassificationPipeline& pipeline)
      : health(core::make_health_options()),
        plain(pipeline, core::OnlineOptions{}),
        with_health(pipeline, core::OnlineOptions{}) {
    with_health.attach_health(&health);
  }

  obs::ModelHealth health;
  core::OnlineClassifier plain;
  core::OnlineClassifier with_health;
  core::SnapshotBatch batch;
  std::int64_t classify_ns = 0;
  std::int64_t ingest_ns = 0;
  std::int64_t health_ingest_ns = 0;
  std::uint64_t snapshots = 0;
};

/// The gate's reference: a serial observe() replay of every announcement
/// up to time `last`, in announce order. The nodes are split into groups,
/// each replayed serially by its own classifier on its own thread; a
/// node's state depends only on its own announcements, so the merged
/// image equals one classifier's replay of all of them.
core::OnlineStateImage replay(const core::ClassificationPipeline& pipeline,
                              const FleetSource& source, metrics::SimTime last) {
  constexpr std::size_t kGroups = 4;
  std::array<core::OnlineStateImage, kGroups> parts;
  std::array<std::exception_ptr, kGroups> errors;
  {
    std::vector<std::jthread> threads;
    for (std::size_t g = 0; g < kGroups; ++g)
      threads.emplace_back([&, g] {
        try {
          core::OnlineClassifier reference(pipeline, core::OnlineOptions{});
          metrics::Snapshot snapshot;
          for (metrics::SimTime t = 1; t <= last; ++t)
            for (std::size_t n = g; n < source.nodes(); n += kGroups) {
              source.fill(n, t, snapshot);
              reference.observe(snapshot);
            }
          parts[g] = reference.export_state();
        } catch (...) {
          errors[g] = std::current_exception();
        }
      });
  }
  core::OnlineStateImage merged;
  for (std::size_t g = 0; g < kGroups; ++g) {
    if (errors[g]) std::rethrow_exception(errors[g]);
    merged.classified += parts[g].classified;
    merged.abstained += parts[g].abstained;
    for (auto& node : parts[g].nodes) merged.nodes.push_back(std::move(node));
  }
  std::sort(merged.nodes.begin(), merged.nodes.end(),
            [](const auto& a, const auto& b) { return a.node_ip < b.node_ip; });
  return merged;
}

}  // namespace

void run_stream_fleet(const Args& args, Result& result) {
  const std::string model_path = write_model(args.workdir, args.seed);
  const std::vector<RecordedStream> streams = record_catalog(args.seed);
  const FleetSource source(streams, kNodes, args.seed);
  const int d = core::OnlineOptions{}.sampling_interval_s;

  Tracer& tracer = Tracer::instance();
  const auto kStepSpan = tracer.name("bench.step", Layer::kBench);
  const auto kAnnounceSpan = tracer.name("monitor.announce", Layer::kMonitor);
  const auto kDrainSpan = tracer.name("engine.drain", Layer::kEngine);
  const auto kClassifySpan = tracer.name("core.classify_into", Layer::kCore);
  const auto kIngestSpan = tracer.name("core.online_ingest", Layer::kCore);
  const auto kHealthSpan = tracer.name("obs.health_ingest", Layer::kObs);

  // One cold set-up: load the model as serve does and build the serving
  // objects.
  const auto cold_setup = [&model_path] {
    const std::int64_t t0 = thread_cpu_ns();
    const auto serving = std::make_unique<Serving>(model_path);
    return static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
  };
  if (args.trace) {
    Samples load;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      const std::int64_t t0 = thread_cpu_ns();
      const core::ClassificationPipeline p = core::load_pipeline_file(model_path);
      load.add(static_cast<double>(thread_cpu_ns() - t0) * 1e-6);
    }
    result.set("core.model_load_ms", load.median());
  }

  Serving serving(model_path);
  std::vector<metrics::Snapshot> scratch(kNodes);
  std::size_t step = 0;
  std::uint64_t grid_pushes = 0;

  std::unique_ptr<SidePass> side;
  if (args.trace) side = std::make_unique<SidePass>(serving.pipeline);
  Samples drain_ms;
  std::int64_t announce_ns = 0;
  std::uint64_t announces = 0;

  // One grid step: every node announces the d seconds up to and
  // including the next grid instant, then the backlog is drained.
  // Returns {snapshots drained, CPU ns spent in announce + drain}. Step
  // and drain are timed in this thread's CPU time, which leaves out the
  // time the host runs other guests on this core.
  const auto run_step = [&](bool traced) -> std::pair<std::size_t, std::int64_t> {
    const std::int64_t start = thread_cpu_ns();
    const metrics::SimTime grid = static_cast<metrics::SimTime>(step + 1) * d;
    const std::uint64_t step_id = Tracer::id(0, static_cast<std::uint64_t>(grid) * kNodes);
    std::size_t drained = 0;
    std::int64_t drain_ns = 0;
    {
      Tracer::Scope span(kStepSpan, step_id);
      for (metrics::SimTime t = grid - d + 1; t <= grid; ++t) {
        for (std::size_t n = 0; n < kNodes; ++n) {
          source.fill(n, t, scratch[n]);
          if (traced) {
            std::int64_t ns = 0;
            {
              Tracer::Scope a(kAnnounceSpan,
                              Tracer::id(0, static_cast<std::uint64_t>(t) * kNodes + n),
                              &ns);
              serving.bus.announce(scratch[n]);
            }
            announce_ns += ns;
            ++announces;
          } else {
            serving.bus.announce(scratch[n]);
          }
        }
      }
      grid_pushes += kNodes;
      Tracer::Scope span_drain(kDrainSpan, step_id);
      const std::int64_t t0 = thread_cpu_ns();
      drained = serving.stream.drain();
      drain_ns = thread_cpu_ns() - t0;
    }
    const std::int64_t serve_ns = thread_cpu_ns() - start;
    ++step;
    drain_ms.add(static_cast<double>(drain_ns) * 1e-6);

    if (traced) {
      // The drain's decomposition on the same grid snapshots.
      const core::ClassificationPipeline& p = serving.pipeline;
      {
        Tracer::Scope span(kClassifySpan, step_id);
        const std::int64_t t0 = now_ns();
        p.begin_snapshot_batch(side->batch, kNodes, /*detailed=*/true);
        auto lease = p.acquire_scratch();
        for (std::size_t n = 0; n < kNodes; ++n)
          p.classify_snapshot_into(scratch[n], side->batch, n, *lease);
        side->classify_ns += now_ns() - t0;
      }
      {
        Tracer::Scope span(kIngestSpan, step_id);
        const std::int64_t t0 = now_ns();
        for (std::size_t n = 0; n < kNodes; ++n)
          side->plain.ingest(scratch[n], side->batch.detail(n));
        side->ingest_ns += now_ns() - t0;
      }
      {
        Tracer::Scope span(kHealthSpan, step_id);
        const std::int64_t t0 = now_ns();
        for (std::size_t n = 0; n < kNodes; ++n)
          side->with_health.ingest(scratch[n], side->batch.detail(n));
        side->health_ingest_ns += now_ns() - t0;
      }
      side->snapshots += kNodes;
    }
    return {drained, serve_ns};
  };

  for (std::size_t i = 0; i < kWarmupSteps; ++i) run_step(false);
  drain_ms = Samples{};

  // Timed closed loop: untraced for the end-to-end run, which spaces its
  // cold set-ups between steps; in the traced run an untraced stretch
  // first gives the baseline for the overhead figure. Returns snapshots
  // classified and the ns spent announcing and draining them, and
  // records each step's rate.
  Samples step_rate;
  const auto timed = [&](double seconds, bool traced, SpacedSetups* setups) {
    std::size_t classified = 0;
    std::int64_t serve_ns = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const auto [n, ns] = run_step(traced);
      classified += n;
      serve_ns += ns;
      step_rate.add(static_cast<double>(n) / (static_cast<double>(ns) * 1e-9));
      if (setups != nullptr) setups->poll(cold_setup);
    }
    return std::pair{classified, serve_ns};
  };

  if (!args.trace) {
    SpacedSetups setups(kSetupReps, args.seconds);
    timed(args.seconds, false, &setups);
    setups.finish(cold_setup);
    result.set("setup_s", setups.median());
    result.set("snapshots_per_s", step_rate.median());
    result.set("latency_p50_ms", drain_ms.median());
  } else {
    const auto [base_n, base_ns] = timed(args.seconds * 0.4, false, nullptr);
    drain_ms = Samples{};
    tracer.enable(true);
    const auto [traced_n, traced_ns] = timed(args.seconds * 0.6, true, nullptr);
    tracer.enable(false);
    const double base_cost = static_cast<double>(base_ns) / static_cast<double>(base_n);
    const double traced_cost =
        static_cast<double>(traced_ns) / static_cast<double>(traced_n);
    result.set("bench.trace_overhead_pct", (traced_cost / base_cost - 1.0) * 100.0);
    result.set("monitor.announce_ns",
               static_cast<double>(announce_ns) / static_cast<double>(announces));
    result.set("monitor.announces", static_cast<double>(announces));
    result.set_quantile("engine.drain_ms_p50", drain_ms.median(), drain_ms.count());
    result.set_quantile("engine.drain_ms_p99", drain_ms.quantile(0.99), drain_ms.count());
    result.set("engine.drain_snapshots", static_cast<double>(traced_n));
    const double per = static_cast<double>(side->snapshots);
    const double classify = static_cast<double>(side->classify_ns) / per;
    const double ingest = static_cast<double>(side->ingest_ns) / per;
    const double health_ingest = static_cast<double>(side->health_ingest_ns) / per;
    result.set("core.classify_into_ns", classify);
    result.set("core.online_ingest_ns", ingest);
    result.set("core.side_pass_snapshots", per);
    result.set("obs.health_ingest_ns", health_ingest - ingest);
    result.set("engine.drain_residual_ns",
               drain_ms.mean() * 1e6 / static_cast<double>(kNodes) - classify -
                   health_ingest);
  }
  result.set("engine.backlog_peak", static_cast<double>(serving.stream.backlog_peak()));
  result.set("engine.dropped", static_cast<double>(serving.stream.dropped()));

  // Gates: nothing dropped, and the drained state equals a serial
  // observe() replay of every announcement, in announce order.
  result.attempt(grid_pushes);
  result.fail(serving.stream.dropped(), "fleet pushes dropped");
  core::OnlineStateImage expected = replay(
      serving.pipeline, source, static_cast<metrics::SimTime>(step) * d);
  if (args.corrupt_reference) ++expected.classified;
  result.gate(same_state(serving.stream.online().export_state(), expected),
              "stream_fleet state != serial observe() replay");
}

}  // namespace perfbench
