#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

#include "core/class_label.hpp"
#include "dist/http.hpp"
#include "dist/link.hpp"
#include "dist/replay.hpp"
#include "dist/serving.hpp"
#include "dist/shard.hpp"
#include "obs/cardinality.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/federate.hpp"
#include "obs/recorder.hpp"
#include "obs/scrape.hpp"
#include "obs/slo.hpp"

namespace appclass::serving {

namespace {

/// One worker's federation scrape health, as /fleet/workers reports it.
struct WorkerScrape {
  std::uint64_t scrapes = 0;
  std::uint64_t failures = 0;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t parse_errors = 0;
  std::string last_error = "never";  ///< last outcome ("ok", "connect"...)
  std::size_t last_bytes = 0;
};

/// The /workers row of one shard, left open: /fleet/workers appends its
/// scrape-health fields before closing it.
void open_shard_row(std::ostream& out, std::size_t shard,
                    const WorkerEndpoint& worker,
                    const dist::WorkerLink& link) {
  out << "{\"shard\":" << shard << ",\"scrape_port\":" << worker.scrape_port
      << ",\"ingest_port\":" << worker.ingest_port
      << ",\"sent\":" << link.sent() << ",\"acked\":" << link.acked()
      << ",\"reconnects\":" << link.reconnects();
}

/// True when every worker's /replay body reports an empty backlog.
bool backlogs_empty(const std::optional<std::vector<std::string>>& parts) {
  if (!parts) return false;
  for (const std::string& part : *parts)
    if (part.find("\"backlog\":0,") == std::string::npos) return false;
  return true;
}

/// Sums the workers' /shard/classes texts into the merged /classes JSON.
std::string merged_classes_json(const std::vector<std::string>& parts) {
  std::array<std::uint64_t, core::kClassCount> counts{};
  for (const std::string& part : parts) {
    std::istringstream in(part);
    std::string name;
    std::uint64_t value = 0;
    while (in >> name >> value) {
      const auto cls = core::class_from_string(name);
      if (cls) counts[core::index_of(*cls)] += value;
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  std::ostringstream out;
  out << "{\"total_samples\":" << total << ",\"workers\":" << parts.size()
      << ",\"classes\":[";
  for (std::size_t i = 0; i < core::kClassCount; ++i) {
    if (i) out << ',';
    out << "{\"class\":\"" << core::kClassNames[i]
        << "\",\"samples\":" << counts[i] << '}';
  }
  out << "]}";
  return out.str();
}

/// Merges the workers' /appdb texts, rows sorted by node ip.
std::string merged_appdb_text(const std::vector<std::string>& parts) {
  std::map<std::string, std::string> rows;  // ip -> line
  for (const std::string& part : parts) {
    std::istringstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      rows.emplace(line.substr(0, line.find(' ')), line);
    }
  }
  std::string out;
  for (const auto& [ip, line] : rows) {
    out += line;
    out += '\n';
  }
  return out;
}

/// The coordinator. The constructor records the replay and registers
/// the routes; start() and stop() follow docs/serving.md "Lifecycle".
/// It holds no classifier state: every merge route scrapes the workers'
/// own read-only routes.
class Coordinator final : public Component {
 public:
  explicit Coordinator(ServeOptions options)
      : config_(std::move(options)),
        slo_({.freshness_objective =
                  static_cast<double>(config_.slo_objective_pct) / 100.0,
              .freshness_threshold_s =
                  static_cast<double>(config_.slo_freshness_ms) * 1e-3,
              .availability_objective =
                  static_cast<double>(config_.slo_objective_pct) / 100.0,
              .short_window_s = static_cast<int>(config_.slo_window_s),
              .long_window_s = static_cast<int>(config_.slo_window_s * 12)}),
        shard_map_(config_.workers.size()),
        announced_total_(obs::MetricsRegistry::global().counter(
            "appclass_dist_announced_total")),
        worker_scrapes_(config_.workers.size()),
        last_parsed_(config_.workers.size()),
        worker_labels_(config_.workers.size() + 1),
        server_({.bind_address = "127.0.0.1",
                 .port = static_cast<std::uint16_t>(config_.port)}),
        replay_(
            config_.cycles, [this](metrics::Snapshot& s) { return emit(s); },
            [this] { flush_links(); }) {
    for (const WorkerEndpoint& worker : config_.workers)
      links_.push_back(std::make_unique<dist::WorkerLink>(
          worker.host, worker.ingest_port,
          dist::WorkerLinkOptions{
              .should_stop = [this] { return stop_requested(); },
              .on_durable = [this](double e2e_s) {
                slo_.record_freshness(e2e_s, obs::SloTracker::now_s());
              }}));
    add_merge_routes();
    add_fleet_routes();
  }
  ~Coordinator() override { stop(); }

  bool start() override;
  void stop() override;
  std::uint16_t port() const override {
    return running_ ? server_.port() : 0;
  }

 private:
  bool emit(metrics::Snapshot& snapshot);
  void flush_links();
  void scrape_round();
  void scrape_loop();
  std::optional<std::vector<std::string>> fetch_all(
      const std::string& path) const;
  void add_merge_routes();
  void add_fleet_routes();

  const ServeOptions config_;
  // SLO verdict for the whole fleet: freshness fed by the links' durable
  // acks, availability by the federation scraper's probe results.
  obs::SloTracker slo_;
  dist::ShardMap shard_map_;
  std::vector<std::unique_ptr<dist::WorkerLink>> links_;
  obs::Counter& announced_total_;
  std::atomic<std::uint64_t> announced_{0};
  std::atomic<bool> flushed_{false};
  // Federation cache: a worker that stops answering keeps its last-good
  // snapshot in the merge (stale beats absent mid-incident); its scrape
  // health says so.
  std::mutex fleet_mutex_;
  std::string fleet_metrics_text_;
  std::size_t fleet_dropped_series_ = 0;
  long long fleet_last_scrape_us_ = 0;
  std::vector<WorkerScrape> worker_scrapes_;
  std::vector<std::optional<obs::RegistrySnapshot>> last_parsed_;
  obs::BoundedLabelSet worker_labels_;
  obs::ScrapeServer server_;
  ReplaySource replay_;
  bool running_ = false;
  std::atomic<bool> fleet_halt_{false};
  std::thread fleet_thread_;
};

bool Coordinator::emit(metrics::Snapshot& snapshot) {
  // The coordinator filters to the sampling grid *before* numbering
  // frames — that is what keeps frame seq == worker WAL seq, the
  // invariant exactly-once resume rests on.
  if (snapshot.time % config_.online.sampling_interval_s != 0) return true;
  const std::size_t shard = shard_map_.shard_for(snapshot.node_ip);
  obs::TraceSpan span("dist_announce");
  if (span.recording()) {
    span.add_attr({"node", snapshot.node_ip});
    span.add_attr({"shard", shard});
  }
  if (!links_[shard]->send(snapshot, span.context())) return false;
  announced_.fetch_add(1, std::memory_order_relaxed);
  announced_total_.inc();
  return true;
}

void Coordinator::flush_links() {
  bool all = true;
  for (const auto& link : links_) all = link->flush() && all;
  if (all) flushed_.store(true, std::memory_order_release);
}

// One federation round: pull every worker's /metrics, re-parse the text
// exposition, and cache the merged fleet registry — /fleet/metrics
// serves this cache instead of fanning out per request, and every probe
// outcome feeds the availability SLI.
void Coordinator::scrape_round() {
  const auto scrape_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < config_.workers.size(); ++i) {
    const WorkerEndpoint& worker = config_.workers[i];
    const dist::HttpResult res =
        dist::http_get_ex(worker.host, worker.scrape_port, "/metrics");
    slo_.record_availability(res.ok(), obs::SloTracker::now_s());
    std::optional<obs::RegistrySnapshot> parsed;
    if (res.ok()) parsed = obs::parse_prometheus(res.body);
    const std::lock_guard lock(fleet_mutex_);
    WorkerScrape& health = worker_scrapes_[i];
    ++health.scrapes;
    if (parsed) {
      health.consecutive_failures = 0;
      health.last_error = "ok";
      health.last_bytes = res.body.size();
      last_parsed_[i] = std::move(parsed);
    } else {
      ++health.failures;
      ++health.consecutive_failures;
      if (res.ok()) {
        // Reachable but emitting text the parser rejects — a schema
        // mismatch worth distinguishing from a dead worker.
        ++health.parse_errors;
        health.last_error = "parse";
      } else {
        health.last_error = dist::to_string(res.error);
      }
    }
  }
  const std::lock_guard lock(fleet_mutex_);
  std::vector<obs::FederationPart> parts;
  for (std::size_t i = 0; i < last_parsed_.size(); ++i)
    if (last_parsed_[i]) parts.push_back({std::to_string(i), *last_parsed_[i]});
  const obs::FederationResult merged =
      obs::federate_snapshots(parts, &worker_labels_);
  fleet_metrics_text_ = obs::to_prometheus(merged.merged);
  fleet_dropped_series_ = merged.dropped_series;
  fleet_last_scrape_us_ =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - scrape_start)
          .count();
}

void Coordinator::scrape_loop() {
  while (!fleet_halt_.load(std::memory_order_acquire)) {
    scrape_round();
    // Sleep the period in small slices so shutdown stays prompt.
    for (long long slept = 0; slept < config_.fleet_scrape_every_ms &&
                              !fleet_halt_.load(std::memory_order_acquire);
         slept += 20)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::optional<std::vector<std::string>> Coordinator::fetch_all(
    const std::string& path) const {
  std::vector<std::string> bodies;
  for (const WorkerEndpoint& worker : config_.workers) {
    auto body = dist::http_get(worker.host, worker.scrape_port, path);
    if (!body) return std::nullopt;
    bodies.push_back(std::move(*body));
  }
  return bodies;
}

void Coordinator::add_merge_routes() {
  server_.add_route("/composition", "text/plain; version=1", [this] {
    const auto parts = fetch_all("/composition");
    if (!parts) return std::string("merge-error: worker unreachable\n");
    try {
      return merge_composition_texts(*parts);
    } catch (const std::exception& e) {
      return std::string("merge-error: ") + e.what() + "\n";
    }
  });
  server_.add_route("/classes", "application/json", [this] {
    const auto parts = fetch_all("/shard/classes");
    return parts ? merged_classes_json(*parts)
                 : std::string("{\"error\":\"worker unreachable\"}");
  });
  server_.add_route("/appdb", "text/plain; version=1", [this] {
    const auto parts = fetch_all("/appdb");
    return parts ? merged_appdb_text(*parts)
                 : std::string("merge-error: worker unreachable\n");
  });
  server_.add_route("/workers", "application/json", [this] {
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (i) out << ',';
      open_shard_row(out, i, config_.workers[i], *links_[i]);
      out << '}';
    }
    out << "]";
    return out.str();
  });
  server_.add_route("/replay", "application/json", [this] {
    // Complete = every frame sent, acked (durable in a worker WAL), and
    // drained out of every worker's backlog — after which the merged
    // composition is final and safe to byte-compare.
    const bool complete = replay_.finished() && flushed_.load() &&
                          backlogs_empty(fetch_all("/replay"));
    std::ostringstream out;
    out << "{\"mode\":\"coordinator\",\"cycles\":" << config_.cycles
        << ",\"cycles_done\":" << replay_.cycles_done()
        << ",\"announced\":" << announced_.load()
        << ",\"flushed\":" << (flushed_.load() ? "true" : "false")
        << ",\"complete\":" << (complete ? "true" : "false") << "}";
    return out.str();
  });
}

void Coordinator::add_fleet_routes() {
  server_.add_route("/fleet/metrics",
                   "text/plain; version=0.0.4; charset=utf-8", [this] {
                     const std::lock_guard lock(fleet_mutex_);
                     return fleet_metrics_text_.empty()
                                ? std::string(
                                      "# federation: no worker scraped yet\n")
                                : fleet_metrics_text_;
                   });
  server_.add_route("/fleet/workers", "application/json", [this] {
    std::ostringstream out;
    const std::lock_guard lock(fleet_mutex_);
    out << "{\"dropped_series\":" << fleet_dropped_series_
        << ",\"last_scrape_us\":" << fleet_last_scrape_us_
        << ",\"workers\":[";
    for (std::size_t i = 0; i < worker_scrapes_.size(); ++i) {
      const WorkerScrape& health = worker_scrapes_[i];
      if (i) out << ',';
      open_shard_row(out, i, config_.workers[i], *links_[i]);
      out << ",\"in_flight\":" << links_[i]->in_flight()
          << ",\"scrapes\":" << health.scrapes
          << ",\"failures\":" << health.failures
          << ",\"consecutive_failures\":" << health.consecutive_failures
          << ",\"parse_errors\":" << health.parse_errors
          << ",\"last_error\":\"" << health.last_error << '"'
          << ",\"last_bytes\":" << health.last_bytes << '}';
    }
    out << "]}";
    return out.str();
  });
  server_.add_route("/fleet/traces", "application/json", [this] {
    // Live assembly (no cache): traces are an incident tool, and the
    // stitcher tolerates any subset of workers answering.
    std::vector<obs::TraceFleetPart> parts;
    parts.push_back({"coordinator",
                     obs::TraceRecorder::global().to_chrome_json(
                         server_.options().max_trace_response_bytes)});
    for (std::size_t i = 0; i < config_.workers.size(); ++i) {
      dist::HttpResult res =
          dist::http_get_ex(config_.workers[i].host,
                            config_.workers[i].scrape_port, "/traces/recent");
      if (res.ok())
        parts.push_back({"worker-" + std::to_string(i), std::move(res.body)});
    }
    return obs::stitch_chrome_traces(parts).json;
  });
  server_.add_route("/slo", "application/json",
                   [this] { return slo_.to_json(obs::SloTracker::now_s()); });
  // The coordinator's liveness probe IS the SLO verdict: burning both
  // windows on either SLI turns /healthz 503 with the JSON report body.
  server_.set_health_check([this] {
    const std::int64_t now = obs::SloTracker::now_s();
    return obs::HealthVerdict{slo_.healthy(now), slo_.to_json(now)};
  });
}

bool Coordinator::start() {
  if (running_) return true;
  if (!server_.start()) {
    std::fprintf(stderr, "serve: cannot bind 127.0.0.1:%lld\n",
                 config_.port);
    return false;
  }
  std::printf("coordinating %zu workers on 127.0.0.1:%u (/metrics /healthz"
              " /composition /classes /appdb /workers /replay"
              " /fleet/metrics /fleet/workers /fleet/traces /slo)%s\n",
              config_.workers.size(), server_.port(),
              config_.duration_s > 0 ? "" : "; interrupt to stop");
  std::fflush(stdout);
  fleet_thread_ = spawn_loop([this] { scrape_loop(); });
  replay_.start();
  running_ = true;
  return true;
}

// The shutdown order is docs/serving.md "Lifecycle".
void Coordinator::stop() {
  if (!running_) return;
  running_ = false;
  replay_.stop();
  fleet_halt_.store(true, std::memory_order_release);
  fleet_thread_.join();
  std::uint64_t acked = 0;
  for (const auto& link : links_) {
    link->flush();
    acked += link->acked();
  }
  server_.stop();
  if (stop_requested()) std::printf("shutdown signal: links flushed\n");
  std::printf("announced %llu frames to %zu workers (%llu acked)\n",
              static_cast<unsigned long long>(announced_.load()),
              links_.size(), static_cast<unsigned long long>(acked));
}

}  // namespace

std::unique_ptr<Component> make_coordinator(ServeOptions options) {
  return std::make_unique<Coordinator>(std::move(options));
}

}  // namespace appclass::serving
