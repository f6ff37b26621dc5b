#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>

#include "core/class_label.hpp"
#include "core/serialize.hpp"
#include "dist/ingest.hpp"
#include "dist/replay.hpp"
#include "dist/serving.hpp"
#include "engine/fleet.hpp"
#include "monitor/bus.hpp"
#include "obs/scrape.hpp"
#include "persist/checkpoint.hpp"
#include "persist/recovery.hpp"

namespace appclass::serving {

namespace {

/// Plain-text app-DB view: one "ip class" line per node, the class being
/// the debounced stable class ("-" while undecided). Deterministic
/// (export_state node order), so the coordinator can merge by sorting.
std::string appdb_text(const core::OnlineStateImage& state) {
  std::string out;
  for (const auto& node : state.nodes) {
    out += node.node_ip;
    out += ' ';
    out += node.stable_class ? core::to_string(*node.stable_class) : "-";
    out += '\n';
  }
  return out;
}

/// Plain-text per-class sample counts ("name count" per line, class
/// order) — the distilled scorecard a worker exposes on /shard/classes
/// for the coordinator's merged /classes.
std::string shard_classes_text(const obs::ModelHealth& health) {
  const auto counts = health.class_sample_counts();
  std::string out;
  for (std::size_t i = 0; i < counts.size() && i < core::kClassCount; ++i) {
    out += core::kClassNames[i];
    out += ' ';
    out += std::to_string(counts[i]);
    out += '\n';
  }
  return out;
}

core::ClassificationPipeline load_pipeline(const ServeOptions& options) {
  core::ClassificationPipeline pipeline =
      core::load_pipeline_file(options.model_path);
  pipeline.set_parallelism(options.threads);
  return pipeline;
}

/// The node server. The constructor loads the model (and, in single
/// mode, records the replay); start() and stop() follow docs/serving.md
/// "Lifecycle". Members are declared in dependency order, so destruction
/// tears the feeds and routes down before the state they read.
class NodeServer final : public Component {
 public:
  explicit NodeServer(ServeOptions options)
      : config_(std::move(options)),
        pipeline_(load_pipeline(config_)),
        stream_(pipeline_, config_.online,
                static_cast<std::size_t>(config_.max_backlog)),
        health_(core::make_health_options(
            static_cast<std::size_t>(config_.drift_window))),
        server_({.bind_address = "127.0.0.1",
                 .port = static_cast<std::uint16_t>(config_.port)}) {
    // Model-health aggregator: fed by every drained snapshot, read by the
    // scorecard routes, /healthz, and the --stats-every ticker. Labels
    // are identical with or without it. Attached before recovery so WAL
    // replay runs the same arithmetic the live drain will.
    stream_.online().attach_health(&health_);
    obs::ModelHealth::set_instance(&health_);
    if (config_.mode == ServeMode::kSingle)
      replay_.emplace(config_.cycles, [this](metrics::Snapshot& snapshot) {
        bus_.announce(snapshot);
        announced_.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
  }
  ~NodeServer() override {
    stop();
    if (obs::ModelHealth::instance() == &health_)
      obs::ModelHealth::set_instance(nullptr);
  }

  bool start() override;
  void stop() override;
  std::uint16_t port() const override {
    return running_ ? server_.port() : 0;
  }
  std::uint16_t ingest_port() const override {
    return running_ && listener_ ? listener_->port() : 0;
  }

 private:
  bool recover();
  void add_routes();
  void checkpoint();
  void drain_loop();

  const ServeOptions config_;
  core::ClassificationPipeline pipeline_;
  monitor::MetricBus bus_;
  engine::FleetStream stream_;
  obs::ModelHealth health_;
  std::uint64_t recovered_wal_next_ = 0;
  std::mutex wal_mutex_;  // appends on the push path vs checkpoint syncs
  std::optional<persist::WalWriter> wal_;
  std::atomic<std::uint64_t> announced_{0};
  std::atomic<bool> replay_complete_{false};
  std::optional<ReplaySource> replay_;
  std::optional<dist::IngestListener> listener_;
  obs::ScrapeServer server_;
  // Guards OnlineClassifier state between the drain loop and the scrape
  // handlers that export it: online() is not safe against a concurrent
  // drain.
  std::mutex state_mutex_;
  std::size_t classified_ = 0;
  long long drains_since_checkpoint_ = 0;
  bool running_ = false;
  std::atomic<bool> halt_{false};
  std::thread drain_thread_;
};

// Crash safety: recover checkpoint + WAL tail, then log every accepted
// push (under the stream lock, so log order == ingest order).
bool NodeServer::recover() {
  if (::mkdir(config_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "serve: cannot create state dir %s: %s\n",
                 config_.state_dir.c_str(), std::strerror(errno));
    return false;
  }
  const persist::RecoveryReport report =
      persist::recover(config_.state_dir, pipeline_, stream_.online());
  recovered_wal_next_ = report.wal_next_seq;
  if (report.checkpoint_loaded || report.replayed > 0)
    std::printf(
        "recovered state: checkpoint %s (wal-next %llu), %llu WAL "
        "records replayed%s in %.3fs\n",
        report.checkpoint_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(report.checkpoint_wal_next),
        static_cast<unsigned long long>(report.replayed),
        report.wal_truncated ? " (torn tail dropped)" : "", report.seconds);
  wal_.emplace(config_.state_dir + "/wal", config_.wal, report.wal_next_seq);
  stream_.set_ingest_hook([this](const metrics::Snapshot& snapshot) {
    const std::lock_guard lock(wal_mutex_);
    return wal_->append(snapshot);
  });
  return true;
}

// Checkpoint barrier: WAL synced first so the claimed horizon is durable,
// then the state image lands atomically, then fully-covered segments are
// pruned. Callers hold state_mutex_.
void NodeServer::checkpoint() {
  if (!wal_) return;
  {
    const std::lock_guard lock(wal_mutex_);
    wal_->sync();
  }
  persist::CheckpointData data;
  data.wal_next =
      std::max(recovered_wal_next_, stream_.ingested_wal_horizon());
  data.options = stream_.online().options();
  data.online = stream_.online().export_state();
  persist::write_checkpoint(config_.state_dir + "/checkpoints", data);
  if (data.wal_next == 0) return;
  const std::lock_guard lock(wal_mutex_);
  wal_->prune_through(data.wal_next - 1);
}

void NodeServer::add_routes() {
  server_.add_route("/classes", "application/json",
                    [this] { return health_.classes_json(); });
  server_.add_route("/drift", "application/json",
                    [this] { return health_.drift_json(); });
  server_.add_route("/nodes", "application/json",
                    [this] { return health_.nodes_json(); });
  server_.add_route("/composition", "text/plain; version=1", [this] {
    const std::lock_guard lock(state_mutex_);
    return composition_text(stream_.online());
  });
  server_.add_route("/appdb", "text/plain; version=1", [this] {
    const std::lock_guard lock(state_mutex_);
    return appdb_text(stream_.online().export_state());
  });
  server_.add_route("/shard/classes", "text/plain; version=1",
                    [this] { return shard_classes_text(health_); });
  server_.add_route("/replay", "application/json", [this] {
    std::ostringstream out;
    if (listener_) {
      out << "{\"mode\":\"worker\",\"expected\":" << listener_->expected()
          << ",\"backlog\":" << stream_.backlog()
          << ",\"duplicates\":" << listener_->duplicates()
          << ",\"connections\":" << listener_->connections() << "}";
    } else {
      out << "{\"mode\":\"single\",\"cycles\":" << config_.cycles
          << ",\"cycles_done\":" << replay_->cycles_done()
          << ",\"announced\":" << announced_.load()
          << ",\"backlog\":" << stream_.backlog() << ",\"complete\":"
          << (replay_complete_.load() ? "true" : "false") << "}";
    }
    return out.str();
  });
  server_.set_health_check([this] {
    const obs::ModelHealth::Status status = health_.status();
    return obs::HealthVerdict{status.healthy, status.reason_json};
  });
}

// Classifies whatever the feed buffered every 25 ms, checkpointing every
// --checkpoint-every non-empty drains, so every scrape sees live pipeline
// and engine metrics (and spans when tracing).
void NodeServer::drain_loop() {
  while (!halt_.load(std::memory_order_acquire)) {
    {
      const std::lock_guard lock(state_mutex_);
      const std::size_t drained = stream_.drain();
      classified_ += drained;
      if (drained > 0 &&
          ++drains_since_checkpoint_ >= config_.checkpoint_every) {
        checkpoint();
        drains_since_checkpoint_ = 0;
      }
    }
    if (replay_ && replay_->finished() && stream_.backlog() == 0)
      replay_complete_.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

bool NodeServer::start() {
  if (running_) return true;
  if (!config_.state_dir.empty() && !recover()) return false;
  if (config_.mode == ServeMode::kWorker) {
    // The sink routes through the same push path the bus would use, so
    // the WAL hook, backlog bound, and grid filter behave identically;
    // the listener acks only after push (and so the WAL append) returns.
    listener_.emplace(
        dist::IngestListenerOptions{
            .port = static_cast<std::uint16_t>(config_.ingest_port),
            .sampling_interval_s = config_.online.sampling_interval_s},
        [this](const metrics::Snapshot& snapshot) {
          return stream_.push(snapshot);
        },
        recovered_wal_next_);
    if (!listener_->start()) {
      std::fprintf(stderr, "serve: cannot bind ingest port %lld\n",
                   config_.ingest_port);
      return false;
    }
  } else {
    stream_.attach(bus_);
  }
  add_routes();
  if (!server_.start()) {
    std::fprintf(stderr, "serve: cannot bind 127.0.0.1:%lld\n",
                 config_.port);
    return false;
  }
  std::printf("serving on 127.0.0.1:%u (/metrics /healthz /traces/recent"
              " /classes /drift /nodes)%s%s\n",
              server_.port(), wal_ ? " with WAL + checkpoints" : "",
              config_.duration_s > 0 ? "" : "; interrupt to stop");
  if (listener_)
    std::printf("worker ingest on 127.0.0.1:%u (expecting seq %llu)\n",
                listener_->port(),
                static_cast<unsigned long long>(listener_->expected()));
  std::fflush(stdout);
  drain_thread_ = spawn_loop([this] { drain_loop(); });
  if (replay_) replay_->start();
  running_ = true;
  return true;
}

// The shutdown order is docs/serving.md "Lifecycle".
void NodeServer::stop() {
  if (!running_) return;
  running_ = false;
  if (replay_) replay_->stop();
  if (listener_) listener_->stop();
  halt_.store(true, std::memory_order_release);
  drain_thread_.join();
  stream_.detach();
  {
    const std::lock_guard lock(state_mutex_);
    classified_ += stream_.drain();
    checkpoint();
  }
  server_.stop();
  if (stop_requested()) std::printf("shutdown signal: drained and flushed\n");
  if (listener_)
    std::printf("served %llu ingested frames (%zu classified)\n",
                static_cast<unsigned long long>(listener_->expected() -
                                                recovered_wal_next_),
                classified_);
  else
    std::printf("served %zu announcements (%zu classified)\n",
                static_cast<std::size_t>(announced_.load()), classified_);
  std::printf("%s\n", health_.summary_line().c_str());
}

}  // namespace

std::unique_ptr<Component> make_node_server(ServeOptions options) {
  return std::make_unique<NodeServer>(std::move(options));
}

}  // namespace appclass::serving
