#include "dist/serving.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/codec.hpp"
#include "core/class_label.hpp"
#include "dist/replay.hpp"
#include "obs/metrics.hpp"
#include "persist/supervisor.hpp"

namespace appclass::serving {

namespace {

constexpr std::string_view kCompositionHeader = "appclass-composition v1";

/// Snapshots announced per run per replay cycle (the historical serve
/// loop's batch size, shared by single and coordinator modes so their
/// per-node announce orders match exactly).
constexpr std::size_t kAnnouncesPerCycle = 32;

/// --mode spellings, in ServeMode order.
constexpr std::string_view kModeNames[] = {"single", "worker", "coordinator"};

/// The component ServeApp::run_mode is running; its SIGTERM/SIGINT
/// handler only flips that component's stop request.
std::atomic<Component*> g_signal_target{nullptr};

void request_stop_on_signal(int) {
  if (Component* component = g_signal_target.load()) component->request_stop();
}

void export_restart_ordinal() {
  // Under --supervised the watchdog's registry lives in another process;
  // the restart ordinal reaches the worker's /metrics via environment.
  if (const char* env = std::getenv(persist::kRestartsEnvVar)) {
    if (const auto ordinal = common::parse_count(env))
      obs::MetricsRegistry::global()
          .gauge("appclass_supervised_restart_ordinal")
          .set(static_cast<double>(*ordinal));
  }
}

}  // namespace

std::vector<std::string> split_list(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

const IntFlag* parse_int_flag(std::span<const IntFlag> table,
                              const std::string& flag, const char* prefix,
                              bool& bad) {
  for (const IntFlag& row : table) {
    if (flag.rfind(row.name, 0) != 0) continue;
    const std::string text = flag.substr(row.name.size());
    const auto value = common::parse_count(text);
    bad = !value || *value < row.min || *value > row.max;
    if (bad)
      std::fprintf(stderr, "%sbad %s '%s'%s\n", prefix, row.what,
                   text.c_str(), row.hint);
    else
      *row.field = *value;
    return &row;
  }
  return nullptr;
}

std::string replay_node_ip(std::size_t run_index) {
  return "10.0." + std::to_string(run_index) + ".1";
}

std::string composition_text(const core::OnlineClassifier& online) {
  const core::OnlineStateImage state = online.export_state();
  std::ostringstream out;
  out << kCompositionHeader << '\n';
  out << "classified " << state.classified << '\n';
  out << "abstained " << state.abstained << '\n';
  for (const auto& node : state.nodes) {
    out << "node " << node.node_ip << " first " << node.first_time
        << " coverage ";
    char coverage[32];
    std::snprintf(coverage, sizeof coverage, "%.17g", node.coverage);
    out << coverage << " stable "
        << (node.stable_class ? core::to_string(*node.stable_class) : "-")
        << " candidate " << core::to_string(node.candidate) << " streak "
        << node.candidate_streak << " window ";
    if (node.window.empty()) {
      out << '-';
    } else {
      for (std::size_t i = 0; i < node.window.size(); ++i) {
        if (i) out << ',';
        out << node.window[i].first << ':'
            << core::to_string(node.window[i].second);
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string merge_composition_texts(const std::vector<std::string>& parts) {
  std::uint64_t classified = 0;
  std::uint64_t abstained = 0;
  std::map<std::string, std::string> node_lines;  // ip -> full line
  for (const std::string& part : parts) {
    std::istringstream in(part);
    std::string line;
    if (!std::getline(in, line) || line != kCompositionHeader)
      throw std::runtime_error("merge: bad composition header");
    for (const char* key : {"classified ", "abstained "}) {
      if (!std::getline(in, line) || line.rfind(key, 0) != 0)
        throw std::runtime_error("merge: missing counter line");
      const auto value =
          common::parse_count(line.substr(std::strlen(key)));
      if (!value || *value < 0)
        throw std::runtime_error("merge: bad counter value");
      (key[0] == 'c' ? classified : abstained) +=
          static_cast<std::uint64_t>(*value);
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.rfind("node ", 0) != 0)
        throw std::runtime_error("merge: unexpected line: " + line);
      const std::size_t ip_end = line.find(' ', 5);
      if (ip_end == std::string::npos)
        throw std::runtime_error("merge: truncated node line");
      const std::string ip = line.substr(5, ip_end - 5);
      // Sharding places each node on exactly one worker; two workers
      // claiming one ip means the shard map and the fleet disagree.
      if (!node_lines.emplace(ip, line).second)
        throw std::runtime_error("merge: node " + ip +
                                 " reported by two shards");
    }
  }
  std::ostringstream out;
  out << kCompositionHeader << '\n';
  out << "classified " << classified << '\n';
  out << "abstained " << abstained << '\n';
  for (const auto& [ip, line] : node_lines) out << line << '\n';
  return out.str();
}

ParseResult parse_serve_args(const std::string& model_path,
                             const std::vector<std::string>& flags) {
  ServeOptions config;
  config.model_path = model_path;
  long long sync_every = static_cast<long long>(config.wal.sync_every);
  constexpr unsigned kCoordinatorOnly = mode_bit(ServeMode::kCoordinator);
  constexpr long long kAny = std::numeric_limits<long long>::max();
  const IntFlag int_flags[] = {
      {"--drift-window=", &config.drift_window, 0, kAny, "drift window"},
      {"--port=", &config.port, 0, 65535, "port"},
      {"--ingest-port=", &config.ingest_port, 0, 65535, "ingest port"},
      {"--duration=", &config.duration_s, 0, kAny, "duration"},
      {"--cycles=", &config.cycles, 0, kAny, "cycle count"},
      {"--sync-every=", &sync_every, 1, kAny, "sync interval"},
      {"--checkpoint-every=", &config.checkpoint_every, 1, kAny,
       "checkpoint interval"},
      {"--max-backlog=", &config.max_backlog, 0, kAny, "backlog bound"},
      {"--fleet-scrape-every=", &config.fleet_scrape_every_ms, 1, kAny,
       "fleet scrape period", "", kCoordinatorOnly},
      {"--slo-freshness-ms=", &config.slo_freshness_ms, 1, kAny,
       "freshness threshold", "", kCoordinatorOnly},
      {"--slo-window=", &config.slo_window_s, 1, 86400, "SLO window",
       " (seconds, <= 1d)", kCoordinatorOnly},
      {"--slo-objective=", &config.slo_objective_pct, 1, 99,
       "SLO objective", " (percent, 1-99)", kCoordinatorOnly},
  };
  unsigned seen_modes = ~0u;  // modes every flag seen so far applies to
  for (const auto& flag : flags) {
    bool bad = false;
    if (const IntFlag* row = parse_int_flag(int_flags, flag, "serve: ", bad)) {
      if (bad) return {};
      seen_modes &= row->modes;
    } else if (flag.rfind("--mode=", 0) == 0) {
      const std::string name = flag.substr(std::strlen("--mode="));
      const auto* mode = std::find(kModeNames, std::end(kModeNames), name);
      if (mode == std::end(kModeNames)) {
        std::fprintf(stderr,
                     "serve: bad mode '%s' (expected single, worker, "
                     "coordinator)\n",
                     name.c_str());
        return {};
      }
      config.mode = static_cast<ServeMode>(mode - kModeNames);
    } else if (flag.rfind("--workers=", 0) == 0) {
      for (const std::string& token :
           split_list(flag.substr(std::strlen("--workers=")), ',')) {
        const auto ports = split_list(token, ':');
        std::optional<long long> scrape, ingest;
        if (ports.size() == 2) {
          scrape = common::parse_count(ports[0]);
          ingest = common::parse_count(ports[1]);
        }
        if (!scrape || !ingest || *scrape < 1 || *scrape > 65535 ||
            *ingest < 1 || *ingest > 65535) {
          std::fprintf(stderr,
                       "serve: bad worker '%s' (expected "
                       "SCRAPE_PORT:INGEST_PORT)\n",
                       token.c_str());
          return {};
        }
        config.workers.push_back(
            {.host = "127.0.0.1",
             .scrape_port = static_cast<std::uint16_t>(*scrape),
             .ingest_port = static_cast<std::uint16_t>(*ingest)});
      }
      if (config.workers.empty()) {
        std::fprintf(stderr, "serve: --workers needs at least one entry\n");
        return {};
      }
    } else if (flag.rfind("--state-dir=", 0) == 0) {
      config.state_dir = flag.substr(std::strlen("--state-dir="));
      if (config.state_dir.empty()) {
        std::fprintf(stderr, "serve: --state-dir needs a path\n");
        return {};
      }
    } else if (flag.rfind("--fsync=", 0) == 0) {
      const std::string name = flag.substr(std::strlen("--fsync="));
      const auto policy = persist::fsync_policy_from_string(name);
      if (!policy) {
        std::fprintf(stderr,
                     "serve: bad fsync policy '%s' (expected always, "
                     "interval, never)\n",
                     name.c_str());
        return {};
      }
      config.wal.fsync = *policy;
    } else if (flag == "--supervised") {
      config.supervised = true;
    } else {
      std::fprintf(stderr, "serve: unknown flag '%s'\n", flag.c_str());
      return {};
    }
  }
  config.wal.sync_every = static_cast<std::size_t>(sync_every);

  // Per-mode flag validity: one parser, three modes, no silent ignores.
  const bool coordinator = config.mode == ServeMode::kCoordinator;
  const std::pair<bool, const char*> mode_errors[] = {
      {!coordinator && !config.workers.empty(),
       "--workers only applies to --mode=coordinator"},
      {config.mode != ServeMode::kWorker && config.ingest_port != 0,
       "--ingest-port only applies to --mode=worker"},
      {config.mode == ServeMode::kWorker && config.cycles != 0,
       "--cycles applies to the replaying modes (single, coordinator), not "
       "worker"},
      {(seen_modes & mode_bit(config.mode)) == 0,
       "--fleet-scrape-every/--slo-* only apply to --mode=coordinator"},
      {coordinator && config.workers.empty(),
       "--mode=coordinator requires --workers"},
      {coordinator && !config.state_dir.empty(),
       "the coordinator is stateless; --state-dir belongs on the workers"},
  };
  for (const auto& [invalid, message] : mode_errors) {
    if (invalid) {
      std::fprintf(stderr, "serve: %s\n", message);
      return {};
    }
  }
  return {.options = std::move(config), .exit_code = 0};
}

std::thread spawn_loop(std::function<void()> body) {
  return std::thread([body = std::move(body)] {
    try {
      body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::fflush(nullptr);
      std::_Exit(1);
    }
  });
}

ReplaySource::ReplaySource(long long cycles, Emit emit,
                           std::function<void()> on_finished)
    : cycles_(cycles),
      emit_(std::move(emit)),
      on_finished_(std::move(on_finished)) {
  std::printf("recording canonical workload streams for replay...\n");
  std::fflush(stdout);
  runs_ = core::record_canonical_runs();
}

void ReplaySource::start() { thread_ = spawn_loop([this] { loop(); }); }

void ReplaySource::stop() {
  halt_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void ReplaySource::loop() {
  while (!halt_.load(std::memory_order_acquire)) {
    if (cycles_ == 0 || cycles_done() < cycles_) {
      const auto cycle = static_cast<std::size_t>(cycles_done());
      for (std::size_t r = 0; r < runs_.size(); ++r) {
        const auto& run = runs_[r];
        if (run.announcements.empty()) continue;
        const std::string node_ip = replay_node_ip(r);
        for (std::size_t n = 0; n < kAnnouncesPerCycle; ++n) {
          metrics::Snapshot snapshot =
              run.announcements[(cycle * kAnnouncesPerCycle + n) %
                                run.announcements.size()];
          snapshot.node_ip = node_ip;
          if (!emit_(snapshot)) return;
        }
      }
      cycles_done_.fetch_add(1, std::memory_order_acq_rel);
      if (finished() && on_finished_) on_finished_();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

ServeApp::ServeApp(ServeOptions options) : options_(std::move(options)) {}

int ServeApp::run_mode() {
  export_restart_ordinal();
  // SIGTERM/SIGINT request the ordered shutdown (docs/serving.md
  // "Lifecycle") and the process exits 0, so a supervisor treating the
  // forwarded SIGTERM as "please stop" sees a clean exit. The signals
  // stay blocked until the component they stop exists, so a request
  // during model load is delivered, not lost.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  const std::unique_ptr<Component> component =
      options_.mode == ServeMode::kCoordinator ? make_coordinator(options_)
                                               : make_node_server(options_);
  g_signal_target.store(component.get());
  std::signal(SIGTERM, request_stop_on_signal);
  std::signal(SIGINT, request_stop_on_signal);
  pthread_sigmask(SIG_UNBLOCK, &signals, nullptr);
  const bool started = component->start();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(options_.duration_s);
  while (started && !component->stop_requested() &&
         (options_.duration_s == 0 ||
          std::chrono::steady_clock::now() < deadline))
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  component->stop();
  g_signal_target.store(nullptr);
  return started ? 0 : 1;
}

int ServeApp::run() {
  if (!options_.supervised) return run_mode();

  // Everything state-dependent (model load, recovery, serving) runs in
  // the forked child, so a poisoned state directory kills only the
  // worker — and the crash-loop detector turns "can never come up" into
  // a clean supervisor exit instead of an infinite restart burn.
  persist::Supervisor supervisor;
  const persist::SupervisorResult result =
      supervisor.run([this] { return run_mode(); });
  std::printf("supervisor: worker exited %d after %zu restart%s%s%s\n",
              result.exit_code, result.restarts,
              result.restarts == 1 ? "" : "s",
              result.crash_loop ? " (crash loop)" : "",
              result.terminated ? " (terminated)" : "");
  if (result.crash_loop) return 1;
  return result.exit_code;
}

}  // namespace appclass::serving
