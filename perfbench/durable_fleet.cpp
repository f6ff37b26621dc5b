// durable_fleet: one coordinator and two shard workers in one process.
// An open-loop generator routes 256 nodes over a dist::ShardMap and sends
// each shard 1,000 frames/s through its dist::WorkerLink; each worker's
// dist::IngestListener pushes into a FleetStream whose ingest hook
// appends to a kAlways WAL (the serve defaults). One drainer thread
// drains both shards and checkpoints each once. After an unclean stop
// every shard is recovered, repeatedly, from its state directory.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/serialize.hpp"
#include "dist/ingest.hpp"
#include "dist/link.hpp"
#include "dist/shard.hpp"
#include "engine/fleet.hpp"
#include "obs/health.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"
#include "persist/wal.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kNodes = 256;
// Far below the kAlways fsync ceiling, so the loop stays open: the
// system, not the generator, sets every latency.
constexpr double kFramesPerSecondPerShard = 250.0;
constexpr std::size_t kSetupReps = 41;
// Recoveries of the end-to-end run are repeated for this long: one takes
// ~10 ms, and how fast the host runs them drifts over seconds.
constexpr double kRecoverSeconds = 6.0;
constexpr auto kDrainEvery = std::chrono::milliseconds(25);  // serve's cadence

struct Spans {
  std::uint16_t send, push, append, drain, checkpoint, recover;
};

Spans register_spans() {
  Tracer& t = Tracer::instance();
  return {t.name("dist.send", Layer::kDist),
          t.name("engine.push", Layer::kEngine),
          t.name("persist.wal_append", Layer::kPersist),
          t.name("engine.drain", Layer::kEngine),
          t.name("persist.checkpoint", Layer::kPersist),
          t.name("persist.recover", Layer::kPersist)};
}

/// One shard worker plus the coordinator's link to it, with the
/// benchmark's per-frame bookkeeping.
struct Shard {
  std::size_t index = 0;
  std::string dir;
  std::unique_ptr<obs::ModelHealth> health;
  std::unique_ptr<engine::FleetStream> stream;
  std::mutex wal_mutex;  // serializes the push hook with sync/prune
  std::optional<persist::WalWriter> wal;
  std::unique_ptr<dist::IngestListener> listener;
  std::unique_ptr<dist::WorkerLink> link;

  /// Due time of each frame (index = per-link sequence number).
  std::vector<std::int64_t> due_ns;
  /// When the worker's sink returned for each frame (traced run).
  std::unique_ptr<std::atomic<std::int64_t>[]> sink_return_ns;
  /// on_durable calls so far == sequence number of the next durable frame.
  std::uint64_t durable = 0;
  Samples ack_ms, notice_ms, push_us, append_us, drain_ms;
  bool checkpointed = false;
  double checkpoint_ms = 0.0;
};

/// Builds the serving side of one shard exactly as `serve --mode worker
/// --state-dir` does (cold start: recover an empty directory, open the
/// WAL at the recovered horizon, start the listener), plus its link.
void start_shard(Shard& shard, const core::ClassificationPipeline& pipeline,
                 const Spans& spans, std::size_t frames) {
  ::mkdir(shard.dir.c_str(), 0755);
  shard.due_ns.assign(frames, 0);
  shard.sink_return_ns = std::make_unique<std::atomic<std::int64_t>[]>(frames);
  shard.health = std::make_unique<obs::ModelHealth>(core::make_health_options());
  shard.stream = std::make_unique<engine::FleetStream>(pipeline, core::OnlineOptions{});
  shard.stream->online().attach_health(shard.health.get());
  const persist::RecoveryReport report =
      persist::recover(shard.dir, pipeline, shard.stream->online());
  shard.wal.emplace(shard.dir + "/wal", persist::WalOptions{}, report.wal_next_seq);
  shard.stream->set_ingest_hook([&shard, &spans](const metrics::Snapshot& s) {
    const std::lock_guard lock(shard.wal_mutex);
    std::int64_t ns = 0;
    std::uint64_t seq = 0;
    {
      Tracer::Scope span(spans.append, Tracer::id(shard.index, shard.wal->next_seq()), &ns);
      seq = shard.wal->append(s);
    }
    if (ns != 0) shard.append_us.add(static_cast<double>(ns) * 1e-3);
    return seq;
  });

  dist::IngestListenerOptions listen;
  listen.bind_address = "127.0.0.1";
  listen.port = 0;
  listen.sampling_interval_s = core::OnlineOptions{}.sampling_interval_s;
  shard.listener = std::make_unique<dist::IngestListener>(
      listen,
      [&shard, &spans](const metrics::Snapshot& s) {
        const std::uint64_t seq = shard.listener->expected();
        std::int64_t ns = 0;
        bool accepted = false;
        {
          Tracer::Scope span(spans.push, Tracer::id(shard.index, seq), &ns);
          accepted = shard.stream->push(s);
        }
        if (ns != 0) {
          shard.push_us.add(static_cast<double>(ns) * 1e-3);
          if (seq < shard.due_ns.size())
            shard.sink_return_ns[seq].store(now_ns(), std::memory_order_release);
        }
        return accepted;
      },
      report.wal_next_seq);
  if (!shard.listener->start())
    throw std::runtime_error("cannot start ingest listener");

  dist::WorkerLinkOptions link;
  link.on_durable = [&shard](double) {
    const std::int64_t now = now_ns();
    const std::uint64_t seq = shard.durable++;
    if (seq >= shard.due_ns.size()) return;
    shard.ack_ms.add(static_cast<double>(now - shard.due_ns[seq]) * 1e-6);
    const std::int64_t returned =
        shard.sink_return_ns[seq].load(std::memory_order_acquire);
    if (returned != 0)
      shard.notice_ms.add(static_cast<double>(now - returned) * 1e-6);
  };
  shard.link = std::make_unique<dist::WorkerLink>("127.0.0.1", shard.listener->port(),
                                                  std::move(link));
}

/// Unclean stop: the listener goes away and the WAL is dropped as a
/// SIGKILL would leave it; no final checkpoint is written.
void crash_shard(Shard& shard) {
  shard.listener->stop();
  shard.link.reset();
  const std::lock_guard lock(shard.wal_mutex);
  shard.wal->simulate_crash();
}

void checkpoint_shard(Shard& shard) {
  const std::int64_t t0 = now_ns();
  {
    const std::lock_guard lock(shard.wal_mutex);
    shard.wal->sync();
  }
  persist::CheckpointData data;
  data.wal_next = shard.stream->ingested_wal_horizon();
  data.options = shard.stream->online().options();
  data.online = shard.stream->online().export_state();
  persist::write_checkpoint(shard.dir + "/checkpoints", data);
  if (data.wal_next > 0) {
    const std::lock_guard lock(shard.wal_mutex);
    shard.wal->prune_through(data.wal_next - 1);
  }
  shard.checkpoint_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  shard.checkpointed = true;
}

core::ClassificationPipeline load_model(const std::string& path) {
  core::ClassificationPipeline pipeline = core::load_pipeline_file(path);
  pipeline.set_parallelism(1);
  return pipeline;
}

struct Routing {
  std::array<std::vector<std::size_t>, kShards> nodes;
};

Routing route(const FleetSource& source) {
  const dist::ShardMap map(kShards);
  Routing routing;
  for (std::size_t n = 0; n < source.nodes(); ++n)
    routing.nodes[map.shard_for(source.ip(n))].push_back(n);
  return routing;
}

/// Frame k of a shard: its nodes in turn, each on consecutive grid times.
void fill_frame(const FleetSource& source, const Routing& routing,
                std::size_t shard, std::size_t k, metrics::Snapshot& out) {
  const auto& nodes = routing.nodes[shard];
  const auto round = static_cast<metrics::SimTime>(k / nodes.size());
  source.fill(nodes[k % nodes.size()],
              round * core::OnlineOptions{}.sampling_interval_s, out);
}

/// Cold set-up to ready-to-serve: model load, serving objects, WAL open,
/// listeners started, and links connected — the first frame on each link
/// durable.
double time_setup(const std::string& model_path, const std::string& dir,
                  const FleetSource& source, const Routing& routing,
                  const Spans& spans) {
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  const std::int64_t t0 = now_ns();
  double seconds = 0.0;
  {
    const core::ClassificationPipeline pipeline = load_model(model_path);
    std::array<Shard, kShards> shards;
    metrics::Snapshot frame;
    for (std::size_t s = 0; s < kShards; ++s) {
      shards[s].index = s;
      shards[s].dir = dir + "/shard" + std::to_string(s);
      start_shard(shards[s], pipeline, spans, 1);
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      fill_frame(source, routing, s, 0, frame);
      shards[s].link->send(frame, {});
    }
    for (auto& shard : shards) shard.link->flush();
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    for (auto& shard : shards) {
      shard.listener->stop();
      shard.link.reset();
    }
  }
  std::filesystem::remove_all(dir);
  return seconds;
}

struct ScenarioStats {
  std::uint64_t frames = 0;
  std::int64_t loop_cpu_ns = 0;
  Samples ack_ms, notice_ms, push_us, append_us, drain_ms, send_us, late_ms;
  Samples recover_s, load_ms, scan_ns, replay_ns;
  /// WAL records replayed, and seconds spent, over every recovery.
  std::uint64_t replayed = 0;
  double replay_s = 0.0;
  /// Median cold set-up, timed between the recoveries (0 without).
  double setup_s = 0.0;
  double flush_ms = 0.0;
  double checkpoint_ms = 0.0;
  double wal_bytes_per_record = 0.0;
  std::uint64_t reconnects = 0, duplicates = 0, protocol_errors = 0;
};

/// One full open-loop run, unclean stop, and recoveries repeated for
/// `recover_seconds` (at least one), with `setup_reps` cold set-ups
/// spaced between them.
ScenarioStats run_scenario(const Args& args, double seconds,
                           double recover_seconds, std::size_t setup_reps,
                           bool traced, const std::string& model_path,
                           const FleetSource& source, const Routing& routing,
                           const Spans& spans, Result& result) {
  const std::string dir = args.workdir + "/durable";
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  const auto frames = static_cast<std::size_t>(seconds * kFramesPerSecondPerShard);
  const core::ClassificationPipeline pipeline = load_model(model_path);
  std::array<Shard, kShards> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards[s].index = s;
    shards[s].dir = dir + "/shard" + std::to_string(s);
    start_shard(shards[s], pipeline, spans, frames);
  }
  Tracer& tracer = Tracer::instance();
  tracer.enable(traced);

  // Drainer: both shards every kDrainEvery; one checkpoint per shard once
  // its ingested horizon passes half the shard's frames.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread drainer([&] {
    std::unique_lock lock(stop_mutex);
    std::uint64_t round = 0;
    while (!stop) {
      lock.unlock();
      for (Shard& shard : shards) {
        std::int64_t ns = 0;
        std::size_t drained = 0;
        {
          Tracer::Scope span(spans.drain, Tracer::id(shard.index, round), &ns);
          drained = shard.stream->drain();
        }
        if (drained > 0 && ns != 0) shard.drain_ms.add(static_cast<double>(ns) * 1e-6);
        if (!shard.checkpointed && shard.stream->ingested_wal_horizon() >= frames / 2) {
          Tracer::Scope span(spans.checkpoint, Tracer::id(shard.index, 0));
          checkpoint_shard(shard);
        }
      }
      ++round;
      lock.lock();
      stop_cv.wait_for(lock, kDrainEvery, [&] { return stop; });
    }
  });

  // Open-loop generator: frame k of shard s is due at
  // start + k/rate + s/(2 rate), whatever happened to earlier frames.
  ScenarioStats stats;
  const auto gap_ns = static_cast<std::int64_t>(1e9 / kFramesPerSecondPerShard);
  const std::int64_t start = now_ns() + 20'000'000;
  for (std::size_t s = 0; s < kShards; ++s)
    for (std::size_t k = 0; k < frames; ++k)
      shards[s].due_ns[k] = start + static_cast<std::int64_t>(k) * gap_ns +
                            static_cast<std::int64_t>(s) * gap_ns / kShards;
  // Due times interleave the shards, so (k, s) order is due-time order.
  metrics::Snapshot frame;
  stats.late_ms.reserve(frames * kShards);
  const std::int64_t cpu0 = process_cpu_ns();
  for (std::size_t k = 0; k < frames; ++k)
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::int64_t due = shards[s].due_ns[k];
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      stats.late_ms.add(static_cast<double>(now_ns() - due) * 1e-6);
      fill_frame(source, routing, s, k, frame);
      std::int64_t ns = 0;
      {
        Tracer::Scope span(spans.send, Tracer::id(s, k), &ns);
        shards[s].link->send(frame, {});
      }
      if (ns != 0) stats.send_us.add(static_cast<double>(ns) * 1e-3);
    }
  const std::int64_t flush0 = now_ns();
  for (Shard& shard : shards) shard.link->flush();
  stats.flush_ms = static_cast<double>(now_ns() - flush0) * 1e-6;
  stats.loop_cpu_ns = process_cpu_ns() - cpu0;
  stats.frames = frames * kShards;
  for (Shard& shard : shards) {
    stats.reconnects += shard.link->reconnects();
    result.attempt(shard.link->sent());
    result.fail(shard.link->sent() - shard.link->acked(), "frames unacked at the end");
  }

  {
    const std::lock_guard lock(stop_mutex);
    stop = true;
  }
  stop_cv.notify_all();
  drainer.join();
  tracer.enable(false);

  std::array<core::OnlineStateImage, kShards> live;
  for (Shard& shard : shards) {
    stats.duplicates += shard.listener->duplicates();
    stats.protocol_errors += shard.listener->protocol_errors();
    result.gate(shard.listener->expected() == frames,
                "worker expected() != frames routed to its shard");
    crash_shard(shard);
    shard.stream->drain();
    live[shard.index] = shard.stream->online().export_state();
    result.fail(shard.stream->dropped(), "fleet pushes dropped");
    result.gate(shard.checkpointed, "shard checkpoint written");
    stats.checkpoint_ms = std::max(stats.checkpoint_ms, shard.checkpoint_ms);
    stats.ack_ms.append(shard.ack_ms);
    stats.notice_ms.append(shard.notice_ms);
    stats.push_us.append(shard.push_us);
    stats.append_us.append(shard.append_us);
    stats.drain_ms.append(shard.drain_ms);
  }
  result.fail(stats.reconnects, "link reconnects");
  result.fail(stats.duplicates, "duplicate frames");
  result.fail(stats.protocol_errors, "protocol errors");

  // Per-node states must equal a single-process replay of the frames.
  metrics::Snapshot snapshot;
  for (std::size_t s = 0; s < kShards; ++s) {
    core::OnlineClassifier reference(pipeline, core::OnlineOptions{});
    for (std::size_t k = 0; k < frames; ++k) {
      fill_frame(source, routing, s, k, snapshot);
      reference.observe(snapshot);
    }
    core::OnlineStateImage expected = reference.export_state();
    if (args.corrupt_reference) ++expected.classified;
    result.gate(same_state(live[s], expected),
                "shard state != single-process replay of its frames");
  }

  // Repeated read-only recoveries; the slowest shard sets each sample.
  const auto cold_setup = [&] {
    return time_setup(model_path, args.workdir + "/setup", source, routing, spans);
  };
  SpacedSetups setups(std::max<std::size_t>(setup_reps, 1), recover_seconds);
  const std::int64_t recover_until =
      now_ns() + static_cast<std::int64_t>(recover_seconds * 1e9);
  for (std::size_t rep = 0; rep == 0 || now_ns() < recover_until; ++rep) {
    if (setup_reps > 0) setups.poll(cold_setup);
    double slowest = 0.0;
    for (std::size_t s = 0; s < kShards; ++s) {
      obs::ModelHealth health(core::make_health_options());
      core::OnlineClassifier online(pipeline, core::OnlineOptions{});
      online.attach_health(&health);
      tracer.enable(traced);
      // Recovery is CPU-bound (the state directory is in the page cache),
      // so it is timed in this thread's CPU time, without host steal.
      const std::int64_t t0 = thread_cpu_ns();
      persist::RecoveryReport report;
      {
        Tracer::Scope span(spans.recover, Tracer::id(s, rep));
        report = persist::recover(shards[s].dir, pipeline, online);
      }
      const double took = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
      tracer.enable(false);
      slowest = std::max(slowest, took);
      stats.replay_s += took;
      stats.replayed += report.replayed;
      core::OnlineStateImage expected = live[s];
      if (args.corrupt_reference) ++expected.abstained;
      result.gate(report.checkpoint_loaded && same_state(online.export_state(), expected),
                  "recovered state != live state at stop");
      if (traced) {
        const std::int64_t l0 = thread_cpu_ns();
        const auto loaded = persist::load_latest_checkpoint(shards[s].dir + "/checkpoints");
        const std::int64_t l1 = thread_cpu_ns();
        const persist::WalScan scan = persist::replay_wal(
            shards[s].dir + "/wal", loaded ? loaded->data.wal_next : 0,
            [](const persist::WalRecord&) {});
        const std::int64_t l2 = thread_cpu_ns();
        stats.load_ms.add(static_cast<double>(l1 - l0) * 1e-6);
        if (scan.records > 0) {
          stats.scan_ns.add(static_cast<double>(l2 - l1) / static_cast<double>(scan.records));
          stats.replay_ns.add((took * 1e9 - static_cast<double>(l2 - l0)) /
                              static_cast<double>(scan.records));
        }
      }
    }
    stats.recover_s.add(slowest);
  }
  if (setup_reps > 0) {
    setups.finish(cold_setup);
    stats.setup_s = setups.median();
  }
  if (traced) {
    std::uint64_t bytes = 0;
    std::uint64_t records = 0;
    for (const Shard& shard : shards) {
      for (const std::string& seg : persist::wal_segments(shard.dir + "/wal"))
        bytes += std::filesystem::file_size(seg);
      records += persist::replay_wal(shard.dir + "/wal", 0,
                                     [](const persist::WalRecord&) {}).records;
    }
    stats.wal_bytes_per_record =
        static_cast<double>(bytes) / static_cast<double>(std::max<std::uint64_t>(records, 1));
  }

  std::filesystem::remove_all(dir);
  return stats;
}

}  // namespace

void run_durable_fleet(const Args& args, Result& result) {
  const std::string model_path = write_model(args.workdir, args.seed);
  const std::vector<RecordedStream> streams = record_catalog(args.seed);
  const FleetSource source(streams, kNodes, args.seed);
  const Routing routing = route(source);
  const Spans spans = register_spans();

  if (!args.trace) {
    const ScenarioStats stats =
        run_scenario(args, args.seconds, kRecoverSeconds, kSetupReps, false,
                     model_path, source, routing, spans, result);
    result.set("setup_s", stats.setup_s);
    result.set("latency_p50_ms", stats.ack_ms.median());
    // Time-weighted over all recoveries: single recoveries swing by more
    // than the median of a few hundred of them settles.
    result.set("snapshots_per_s",
               static_cast<double>(stats.replayed) / stats.replay_s);
    return;
  }

  Samples load;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    const core::ClassificationPipeline p = core::load_pipeline_file(model_path);
    load.add(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  result.set("core.model_load_ms", load.median());

  // The untraced stretch only sets the baseline for the overhead figure.
  const ScenarioStats base = run_scenario(args, args.seconds * 0.4, 0.0, 0, false,
                                          model_path, source, routing, spans, result);
  const ScenarioStats s = run_scenario(args, args.seconds * 0.6, kRecoverSeconds / 3,
                                       0, true, model_path, source, routing, spans,
                                       result);
  result.set("bench.trace_overhead_pct",
             (static_cast<double>(s.loop_cpu_ns) / static_cast<double>(s.frames)) /
                     (static_cast<double>(base.loop_cpu_ns) /
                      static_cast<double>(base.frames)) *
                     100.0 -
                 100.0);
  result.set_quantile("engine.push_us_p50", s.push_us.median(), s.push_us.count());
  result.set_quantile("engine.push_us_p99", s.push_us.quantile(0.99), s.push_us.count());
  result.set_quantile("engine.drain_ms_p50", s.drain_ms.median(), s.drain_ms.count());
  result.set_quantile("engine.drain_ms_p99", s.drain_ms.quantile(0.99), s.drain_ms.count());
  result.set_quantile("persist.wal_append_us_p50", s.append_us.median(), s.append_us.count());
  result.set_quantile("persist.wal_append_us_p99", s.append_us.quantile(0.99),
                      s.append_us.count());
  result.set("persist.checkpoint_ms", s.checkpoint_ms);
  result.set("persist.checkpoint_load_ms", s.load_ms.median());
  result.set("persist.wal_scan_ns", s.scan_ns.median());
  result.set("persist.replay_ns", s.replay_ns.median());
  result.set("persist.wal_bytes_per_record", s.wal_bytes_per_record);
  result.set_quantile("persist.recover_ms", s.recover_s.median() * 1e3, s.recover_s.count());
  result.set_quantile("dist.send_us_p50", s.send_us.median(), s.send_us.count());
  result.set_quantile("dist.send_us_p99", s.send_us.quantile(0.99), s.send_us.count());
  result.set_quantile("dist.ack_notice_ms_p50", s.notice_ms.median(), s.notice_ms.count());
  result.set_quantile("dist.ack_ms_p99", s.ack_ms.quantile(0.99), s.ack_ms.count());
  result.set("dist.ack_ms_max", s.ack_ms.max());
  result.set("dist.flush_ms", s.flush_ms);
  result.set("dist.reconnects", static_cast<double>(s.reconnects + base.reconnects));
  result.set("dist.duplicates", static_cast<double>(s.duplicates + base.duplicates));
  result.set("dist.protocol_errors",
             static_cast<double>(s.protocol_errors + base.protocol_errors));
  result.set("dist.shard_skew",
             static_cast<double>(std::max(routing.nodes[0].size(), routing.nodes[1].size())) /
                 (static_cast<double>(kNodes) / kShards));
  result.set_quantile("gen.late_ms_p99", s.late_ms.quantile(0.99), s.late_ms.count());
  result.set("gen.late_ms_max", s.late_ms.max());
}

}  // namespace perfbench
