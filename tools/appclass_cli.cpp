// appclass command-line interface.
//
// Drives the library end to end from a shell:
//
//   appclass_cli train <model.txt>
//       Train the classifier on the five canonical simulated runs and save
//       the fitted model.
//   appclass_cli profile <app> <pool.csv> [vm_ram_mb]
//       Simulate a standalone run of a catalog application on the paper's
//       testbed, capture its monitoring pool, and write it as CSV.
//   appclass_cli classify <model.txt> <pool.csv>
//       Load a model and classify a captured pool: per-class composition,
//       majority class, and execution time.
//   appclass_cli info <model.txt>
//       Summarize a saved model.
//   appclass_cli features
//       Run automated relevance/redundancy feature selection over the
//       training runs and print the chosen metrics.
//   appclass_cli apps
//       List catalog application names.
//   appclass_cli trace-record <app> <trace.csv>
//       Run an application and record its per-second demand trace.
//   appclass_cli trace-replay <trace.csv> <pool.csv>
//       Replay a recorded trace in a fresh VM and capture its pool.
//   appclass_cli chaos <out.csv> [--rates=...] [--kinds=...]
//                      [--no-sanitize] [--seed=N]
//       Sweep monitoring-fault kinds x rates over the five canonical
//       workloads and write the accuracy-degradation curve as CSV
//       (docs/robustness.md).
//   appclass_cli serve <model.txt> [--mode=single|worker|coordinator]
//                      [--port=N] [--duration=S] [--cycles=N]
//                      [--drift-window=N] [--state-dir=D] [--fsync=P]
//                      [--sync-every=N] [--checkpoint-every=N]
//                      [--max-backlog=N] [--supervised] [--ingest-port=N]
//                      [--workers=SCRAPE:INGEST,...]
//                      [--fleet-scrape-every=MS] [--slo-freshness-ms=MS]
//                      [--slo-window=S] [--slo-objective=PCT]
//       The unified serving surface (src/dist/serving.hpp). The default
//       --mode=single replays the five canonical workload streams through
//       a FleetStream with a model-health aggregator attached and exposes
//       /metrics, /healthz, /traces/recent plus the JSON scorecards
//       /classes, /drift, /nodes (and /composition, /appdb, /replay) on
//       an HTTP scrape endpoint until --duration seconds pass (0 =
//       forever) or --cycles replay cycles complete. /healthz turns 503
//       with a JSON reason while any node's classifier is degraded.
//       --drift-window sizes the drift detector's sliding window.
//       --state-dir enables crash-safe serving: ingested snapshots are
//       write-ahead logged (fsync policy --fsync=always|interval|never,
//       --sync-every records between interval syncs), the classifier
//       state is checkpointed atomically every --checkpoint-every drains,
//       and startup recovers checkpoint + WAL tail into bit-identical
//       state (docs/robustness.md). SIGTERM/SIGINT shut down gracefully
//       and exit 0 (the stop order is docs/serving.md "Lifecycle").
//       --supervised forks the worker under a watchdog that restarts it
//       on crashes with exponential backoff and crash-loop detection.
//       --mode=worker serves one shard: snapshots arrive as checksummed
//       frames on --ingest-port instead of the local replay, acked only
//       after the WAL append. --mode=coordinator shards the replay by
//       node ip across --workers=SCRAPE:INGEST[,...] endpoints and
//       serves the merged fleet view (/composition, /classes, /appdb,
//       /workers, /replay) plus the fleet observability plane: federated
//       worker metrics on /fleet/metrics (scraped every
//       --fleet-scrape-every ms; per-worker scrape health on
//       /fleet/workers), the stitched cross-process Chrome trace on
//       /fleet/traces, and a multi-window error-budget SLO verdict on
//       /slo — announce->durable freshness against --slo-freshness-ms
//       and worker scrape availability, both targeting --slo-objective
//       percent over --slo-window seconds (long window 12x) — which
//       also drives the coordinator's /healthz 200/503. See
//       docs/serving.md for topology recipes.
//   appclass_cli trace dump <model.txt> <pool.csv> <out.json>
//       Classify a pool with tracing enabled and dump the flight
//       recorder's Chrome trace JSON (Perfetto-loadable) to out.json.
//
// Global flags (any position, any subcommand):
//   --log-level=<trace|debug|info|warn|error|off>
//       Structured logging to stderr (default: off, or APPCLASS_LOG_LEVEL).
//   --stats[=json|prom]
//       After the command, print the metrics-registry snapshot (stage
//       timing histograms, counters) as a table, JSON, or Prometheus text.
//   --stats-every=<N>
//       Also print the snapshot to stderr every N seconds while the
//       command runs (long-running subcommands: serve, chaos, train).
//   --threads=<N>
//       Engine execution width for train/classify/chaos: 1 = serial
//       (default), N = a pool of N worker threads, 0 = one per hardware
//       core. Results are bit-identical for every value.
//   --trace
//       Enable trace-context propagation and flight recording (also:
//       APPCLASS_TRACE=1). Classification output is identical either way.
//   --flight-dump=<path>
//       Install crash handlers (SIGSEGV/SIGBUS/SIGABRT) that dump the
//       flight recorder to <path> post mortem.
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fs.hpp"
#include "core/feature_selection.hpp"
#include "core/robustness.hpp"
#include "dist/serving.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "workloads/trace_replay.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "monitor/harness.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace {

using namespace appclass;

/// Engine execution width from --threads (1 = serial).
std::size_t g_threads = 1;

int usage() {
  std::fprintf(stderr,
               "usage: appclass_cli [--log-level=<lvl>] [--stats[=json|prom]]"
               " <command> [args]\n"
               "  train <model.txt>\n"
               "  profile <app> <pool.csv> [vm_ram_mb]\n"
               "  classify <model.txt> <pool.csv>\n"
               "  info <model.txt>\n"
               "  features\n"
               "  apps\n"
               "  trace-record <app> <trace.csv>\n"
               "  trace-replay <trace.csv> <pool.csv>\n"
               "  chaos <out.csv> [--rates=0,0.1,...] [--kinds=drop,...]"
               " [--no-sanitize] [--seed=N]\n"
               "  serve <model.txt> [--mode=single|worker|coordinator]"
               " [--port=N]\n"
               "        [--duration=S] [--cycles=N] [--drift-window=N]"
               " [--state-dir=D]\n"
               "        [--fsync=always|interval|never] [--sync-every=N]\n"
               "        [--checkpoint-every=N] [--max-backlog=N]"
               " [--supervised]\n"
               "        [--ingest-port=N] [--workers=SCRAPE:INGEST,...]\n"
               "        [--fleet-scrape-every=MS] [--slo-freshness-ms=MS]\n"
               "        [--slo-window=S] [--slo-objective=PCT]\n"
               "  trace dump <model.txt> <pool.csv> <out.json>\n"
               "flags:\n"
               "  --log-level=<trace|debug|info|warn|error|off>  stderr "
               "logging (default off)\n"
               "  --stats[=json|prom]  print the metrics registry snapshot "
               "after the command\n"
               "  --stats-every=<N>  also print it to stderr every N "
               "seconds while running\n"
               "  --threads=<N>  engine threads (1 = serial, 0 = hw cores); "
               "results are identical for every value\n"
               "  --trace  enable trace propagation + flight recording "
               "(or APPCLASS_TRACE=1)\n"
               "  --flight-dump=<path>  dump the flight recorder to <path> "
               "on crash\n");
  return 2;
}

/// Strict numeric parsing: the whole token must be a finite number.
/// Malformed input yields nullopt so callers print a usage error instead
/// of silently treating junk as 0 (std::atof's behaviour).
std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  out << content;
}

int cmd_train(const std::string& model_path) {
  std::printf("training on the five canonical simulated runs...\n");
  core::PipelineOptions options;
  options.parallelism = g_threads;
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline(options);
  core::save_pipeline_file(pipeline, model_path);
  std::printf("model saved to %s (%zu training snapshots, q=%zu, k=%zu)\n",
              model_path.c_str(), pipeline.knn().training_size(),
              pipeline.pca().components(), pipeline.knn().k());
  return 0;
}

/// The run behind `profile` and `trace-replay`: `model` runs alone on
/// VM1 of `tb`, sampled every 5 s, and its pool is written to `pool_path`
/// as CSV. nullopt, reported on stderr, when the run does not complete.
std::optional<monitor::ProfiledRun> profile_to_csv(
    sim::Testbed& tb, workloads::ModelPtr model, const std::string& pool_path) {
  monitor::ClusterMonitor mon(*tb.engine);
  const auto id = tb.engine->submit(tb.vm1, std::move(model));
  monitor::ProfiledRun run = monitor::profile_instance(*tb.engine, mon, id, 5);
  if (!run.completed) {
    std::fprintf(stderr, "run did not complete within the tick budget\n");
    return std::nullopt;
  }
  write_file(pool_path, metrics::to_csv(run.pool));
  return run;
}

int cmd_profile(const std::string& app, const std::string& pool_path,
                double vm_ram_mb) {
  sim::Testbed tb = sim::make_testbed(
      {.seed = 20260707, .vm1_ram_mb = vm_ram_mb, .four_vms = false});
  auto model = workloads::make_by_name(app, static_cast<int>(tb.vm4));
  if (!model) {
    std::fprintf(stderr, "unknown application '%s' (try: appclass_cli apps)\n",
                 app.c_str());
    return 1;
  }
  const auto run = profile_to_csv(tb, std::move(model), pool_path);
  if (!run) return 1;
  std::printf("%s ran %lld s in a %.0f MB VM; %zu snapshots -> %s\n",
              app.c_str(), static_cast<long long>(run->elapsed()), vm_ram_mb,
              run->pool.size(), pool_path.c_str());
  return 0;
}

/// The run behind `classify` and `trace dump`: the captured pool at
/// `pool_path`, classified by the saved model at --threads width.
/// nullopt, reported on stderr, when the pool holds no snapshots.
std::optional<std::pair<metrics::DataPool, core::ClassificationResult>>
classify_pool_file(const std::string& model_path,
                   const std::string& pool_path) {
  core::ClassificationPipeline pipeline = core::load_pipeline_file(model_path);
  pipeline.set_parallelism(g_threads);
  metrics::DataPool pool =
      metrics::from_csv(common::read_file_or_throw(pool_path));
  if (pool.empty()) {
    std::fprintf(stderr, "pool %s holds no snapshots\n", pool_path.c_str());
    return std::nullopt;
  }
  core::ClassificationResult result = pipeline.classify(pool);
  return std::pair{std::move(pool), std::move(result)};
}

int cmd_classify(const std::string& model_path,
                 const std::string& pool_path) {
  const auto classified = classify_pool_file(model_path, pool_path);
  if (!classified) return 1;
  const auto& [pool, result] = *classified;
  std::printf("node:        %s\n", pool.node_ip().c_str());
  std::printf("snapshots:   %zu (t0=%lld, t1=%lld)\n", pool.size(),
              static_cast<long long>(pool.start_time()),
              static_cast<long long>(pool.end_time()));
  std::printf("class:       %s\n",
              std::string(core::to_string(result.application_class)).c_str());
  std::printf("composition: %s\n", result.composition.to_string().c_str());
  // Canonical reductions from the result itself — not refolded here.
  std::printf("confidence:  %.3f\n", result.mean_confidence());
  if (result.novelty_threshold > 0.0)
    std::printf("novel:       %.1f%%\n", 100.0 * result.novel_fraction());
  return 0;
}

int cmd_info(const std::string& model_path) {
  const core::ClassificationPipeline pipeline =
      core::load_pipeline_file(model_path);
  std::printf("appclass pipeline model\n");
  std::printf("  selected metrics (%zu):", pipeline.preprocessor().dimension());
  for (const auto id : pipeline.preprocessor().selected())
    std::printf(" %s", std::string(metrics::info(id).name).c_str());
  std::printf("\n  PCA: %zu -> %zu components (%.1f%% variance)\n",
              pipeline.pca().input_dimension(), pipeline.pca().components(),
              100.0 * pipeline.pca().captured_variance());
  std::printf("  k-NN: %zu training points, k=%zu\n",
              pipeline.knn().training_size(), pipeline.knn().k());
  return 0;
}

int cmd_features() {
  std::printf("profiling training runs and ranking the 33 metrics...\n");
  const auto pools = core::collect_training_pools();
  const auto selected = core::select_features(
      pools, {.target_count = 8, .max_redundancy = 0.97});
  std::printf("auto-selected metrics:");
  for (const auto id : selected)
    std::printf(" %s", std::string(metrics::info(id).name).c_str());
  std::printf("\n");
  return 0;
}

int cmd_trace_record(const std::string& app, const std::string& path) {
  sim::Testbed tb = sim::make_testbed({.seed = 20260707, .four_vms = false});
  auto inner = workloads::make_by_name(app, static_cast<int>(tb.vm4));
  if (!inner) {
    std::fprintf(stderr, "unknown application '%s'\n", app.c_str());
    return 1;
  }
  auto recorder = std::make_unique<workloads::TraceRecorder>(std::move(inner));
  const workloads::TraceRecorder* raw = recorder.get();
  tb.engine->submit(tb.vm1, std::move(recorder));
  if (!tb.engine->run_until_done(300000)) {
    std::fprintf(stderr, "run did not complete\n");
    return 1;
  }
  write_file(path, workloads::trace_to_csv(raw->trace()));
  std::printf("recorded %zu ticks of %s demand -> %s\n", raw->trace().size(),
              app.c_str(), path.c_str());
  return 0;
}

int cmd_trace_replay(const std::string& trace_path,
                     const std::string& pool_path) {
  const auto trace =
      workloads::trace_from_csv(common::read_file_or_throw(trace_path));
  sim::Testbed tb = sim::make_testbed({.seed = 1, .four_vms = false});
  const auto run = profile_to_csv(
      tb, std::make_unique<workloads::TraceReplayApp>(trace), pool_path);
  if (!run) return 1;
  std::printf("replayed %zu ticks of %s; %zu snapshots -> %s\n",
              trace.size(), trace.app_name.c_str(), run->pool.size(),
              pool_path.c_str());
  return 0;
}

int cmd_chaos(const std::string& out_path,
              const std::vector<std::string>& flags) {
  core::ChaosOptions options;
  long long seed = static_cast<long long>(options.seed);
  const serving::IntFlag int_flags[] = {
      {.name = "--seed=", .field = &seed, .min = 0, .what = "seed"}};
  for (const auto& flag : flags) {
    bool bad = false;
    if (serving::parse_int_flag(int_flags, flag, "chaos: ", bad)) {
      if (bad) return 2;
    } else if (flag == "--no-sanitize") {
      options.sanitize = false;
    } else if (flag.rfind("--rates=", 0) == 0) {
      options.rates.clear();
      for (const auto& token :
           serving::split_list(flag.substr(std::strlen("--rates=")), ',')) {
        const auto rate = parse_double(token);
        if (!rate || *rate < 0.0 || *rate > 1.0) {
          std::fprintf(stderr,
                       "chaos: bad rate '%s' (expected numbers in [0, 1])\n",
                       token.c_str());
          return 2;
        }
        options.rates.push_back(*rate);
      }
      if (options.rates.empty()) {
        std::fprintf(stderr, "chaos: --rates needs at least one value\n");
        return 2;
      }
    } else if (flag.rfind("--kinds=", 0) == 0) {
      options.kinds.clear();
      for (const auto& token :
           serving::split_list(flag.substr(std::strlen("--kinds=")), ',')) {
        const auto kind = core::fault_kind_from_string(token);
        if (!kind) {
          std::fprintf(stderr, "chaos: unknown fault kind '%s' (known:",
                       token.c_str());
          for (const auto k : core::all_fault_kinds())
            std::fprintf(stderr, " %s",
                         std::string(core::to_string(k)).c_str());
          std::fprintf(stderr, ")\n");
          return 2;
        }
        options.kinds.push_back(*kind);
      }
    } else {
      std::fprintf(stderr, "chaos: unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  options.seed = static_cast<std::uint64_t>(seed);
  std::printf("training on the five canonical simulated runs...\n");
  core::PipelineOptions pipeline_options;
  pipeline_options.parallelism = g_threads;
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline(pipeline_options);
  std::printf("recording the five canonical workload streams...\n");
  const auto runs = core::record_canonical_runs(options);
  std::printf("sweeping %zu fault kinds x %zu rates (sanitizer %s)...\n",
              options.kinds.empty() ? core::all_fault_kinds().size()
                                    : options.kinds.size(),
              options.rates.size(), options.sanitize ? "on" : "off");
  const auto cells = core::run_chaos_sweep(pipeline, runs, options);
  write_file(out_path, core::chaos_csv(cells));

  std::size_t flipped = 0;
  double worst_accuracy = 1.0;
  for (const auto& c : cells) {
    if (!c.majority_ok) ++flipped;
    if (c.survived_samples > 0 && c.accuracy < worst_accuracy)
      worst_accuracy = c.accuracy;
  }
  std::printf(
      "%zu cells -> %s (majority flipped in %zu cells; worst surviving "
      "per-snapshot accuracy %.1f%%)\n",
      cells.size(), out_path.c_str(), flipped, 100.0 * worst_accuracy);
  return 0;
}

/// Thin adapter over the library-level serving API: flag parsing, the
/// run loop, the distributed modes, and the supervisor wrapper all live
/// in serving::parse_serve_args / serving::ServeApp (src/dist). The CLI
/// only forwards its global --threads.
int cmd_serve(const std::string& model_path,
              const std::vector<std::string>& flags) {
  serving::ParseResult parsed = serving::parse_serve_args(model_path, flags);
  if (!parsed.options) return parsed.exit_code;
  parsed.options->threads = g_threads;
  serving::ServeApp app(std::move(*parsed.options));
  return app.run();
}

int cmd_trace_dump(const std::string& model_path,
                   const std::string& pool_path,
                   const std::string& out_path) {
  obs::set_tracing_enabled(true);
  const auto classified = classify_pool_file(model_path, pool_path);
  if (!classified) return 1;
  const auto& [pool, result] = *classified;
  const auto& recorder = obs::TraceRecorder::global();
  if (!recorder.dump_to_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("classified %zu snapshots (%s); %zu trace events -> %s\n",
              pool.size(),
              std::string(core::to_string(result.application_class)).c_str(),
              recorder.size(), out_path.c_str());
  return 0;
}

int cmd_apps() {
  for (const auto& name : workloads::catalog_names())
    std::printf("%s\n", name.c_str());
  return 0;
}

int run_command(const std::vector<std::string>& args) {
  const std::size_t argc = args.size();
  if (argc < 2) return usage();
  const std::string& command = args[1];
  if (command == "train" && argc == 3) return cmd_train(args[2]);
  if (command == "profile" && (argc == 4 || argc == 5)) {
    double vm_ram_mb = 256.0;
    if (argc == 5) {
      const auto parsed = parse_double(args[4]);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr,
                     "profile: bad vm_ram_mb '%s' (expected a positive "
                     "number)\n",
                     args[4].c_str());
        return 2;
      }
      vm_ram_mb = *parsed;
    }
    return cmd_profile(args[2], args[3], vm_ram_mb);
  }
  if (command == "classify" && argc == 4) return cmd_classify(args[2], args[3]);
  if (command == "info" && argc == 3) return cmd_info(args[2]);
  if (command == "features" && argc == 2) return cmd_features();
  if (command == "apps" && argc == 2) return cmd_apps();
  if (command == "trace-record" && argc == 4)
    return cmd_trace_record(args[2], args[3]);
  if (command == "trace-replay" && argc == 4)
    return cmd_trace_replay(args[2], args[3]);
  if (command == "chaos" && argc >= 3)
    return cmd_chaos(args[2],
                     std::vector<std::string>(args.begin() + 3, args.end()));
  if (command == "serve" && argc >= 3)
    return cmd_serve(args[2],
                     std::vector<std::string>(args.begin() + 3, args.end()));
  if (command == "trace" && argc == 6 && args[2] == "dump")
    return cmd_trace_dump(args[3], args[4], args[5]);
  return usage();
}

/// Background --stats-every ticker: dumps the metrics-registry snapshot
/// to stderr every `seconds` until the returned thread is destroyed (its
/// stop request wakes the wait, so shutdown does not wait out the period).
std::jthread periodic_stats(long long seconds, obs::ExportFormat format) {
  return std::jthread([seconds, format](std::stop_token stop) {
    std::mutex mutex;
    std::condition_variable_any wake;
    std::unique_lock lock(mutex);
    while (!wake.wait_for(lock, stop, std::chrono::seconds(seconds),
                          [&stop] { return stop.stop_requested(); })) {
      const std::string report = obs::export_as(
          obs::MetricsRegistry::global().snapshot(), format);
      std::fprintf(stderr, "== metrics (every %llds) ==\n", seconds);
      std::fwrite(report.data(), 1, report.size(), stderr);
      // Model-health scorecard summary, when a serving aggregator is live
      // (the instance pointer is how this decoupled ticker finds it).
      if (const obs::ModelHealth* health = obs::ModelHealth::instance())
        std::fprintf(stderr, "%s\n", health->summary_line().c_str());
      std::fflush(stderr);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  obs::Logger::global().configure_from_env();
  obs::configure_tracing_from_env();

  bool stats = false;
  long long stats_every_s = 0;
  obs::ExportFormat stats_format = obs::ExportFormat::kTable;
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  long long threads = 1;
  const serving::IntFlag int_flags[] = {
      {.name = "--stats-every=", .field = &stats_every_s, .min = 1,
       .what = "--stats-every", .hint = " (expected seconds >= 1)"},
      {.name = "--threads=", .field = &threads, .min = 0,
       .what = "--threads", .hint = " (expected 0, 1, 2, ...)"}};
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    bool bad = false;
    if (serving::parse_int_flag(int_flags, arg, "", bad)) {
      if (bad) return 2;
    } else if (arg.rfind("--log-level=", 0) == 0) {
      const std::string level = arg.substr(std::strlen("--log-level="));
      // An invalid name falls back to whichever fallback we pass, so two
      // parses with different fallbacks disagreeing means "unknown".
      const obs::LogLevel parsed =
          obs::parse_log_level(level, obs::LogLevel::kOff);
      if (parsed != obs::parse_log_level(level, obs::LogLevel::kTrace)) {
        std::fprintf(stderr, "unknown log level '%s'\n", level.c_str());
        return 2;
      }
      obs::Logger::global().set_level(parsed);
    } else if (arg == "--stats" || arg == "--stats=table") {
      stats = true;
    } else if (arg == "--stats=json") {
      stats = true;
      stats_format = obs::ExportFormat::kJson;
    } else if (arg == "--stats=prom") {
      stats = true;
      stats_format = obs::ExportFormat::kPrometheus;
    } else if (arg.rfind("--stats=", 0) == 0) {
      std::fprintf(stderr,
                   "unknown stats format '%s' (expected table, json, prom)\n",
                   arg.substr(std::strlen("--stats=")).c_str());
      return 2;
    } else if (arg == "--trace") {
      obs::set_tracing_enabled(true);
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      const std::string path = arg.substr(std::strlen("--flight-dump="));
      if (path.empty()) {
        std::fprintf(stderr, "--flight-dump needs a path\n");
        return 2;
      }
      obs::install_crash_dump(path);
    } else {
      args.push_back(arg);
    }
  }
  g_threads = static_cast<std::size_t>(threads);

  std::jthread ticker;
  if (stats_every_s > 0) ticker = periodic_stats(stats_every_s, stats_format);

  int status = 2;
  try {
    status = run_command(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    status = 1;
  }
  if (stats) {
    const std::string report = obs::export_as(
        obs::MetricsRegistry::global().snapshot(), stats_format);
    if (stats_format == obs::ExportFormat::kTable)
      std::printf("\n== metrics registry ==\n");
    std::fwrite(report.data(), 1, report.size(), stdout);
  }
  return status;
}
