// Minimal blocking HTTP scrape endpoint for live observability:
//
//   GET /metrics        Prometheus text exposition 0.0.4 of the global
//                       metrics registry
//   GET /healthz        liveness + model-health probe (see below)
//   GET /traces/recent  flight-recorder contents as Chrome trace JSON
//
// plus any routes registered with add_route() before start() — the serve
// subcommand mounts the model-health scorecards (/classes, /drift,
// /nodes) this way. Handlers run on the accept thread and must be
// thread-safe against whoever updates their backing state.
//
// /healthz is unconditionally "200 ok" until a health check is installed
// with set_health_check(); with one, a degraded verdict turns the probe
// into "503 Service Unavailable" with a JSON reason body, so a liveness
// prober notices a classifier that is up but abstaining.
//
// One accept thread (a common::TcpServer) serves requests sequentially —
// a deliberate non-framework design: scrapes are rare (every few
// seconds), tiny, and read-only, so a single blocking loop with a
// receive timeout is simpler and easier to audit than a connection pool.
// The server never touches classification state; it only reads the
// MetricsRegistry / TraceRecorder snapshots and the registered handlers,
// all of which are safe to read concurrently with recording.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/net.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {

struct ScrapeServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after start().
  std::uint16_t port = 0;
  /// Requests larger than this (without a complete header block) are
  /// answered 431 and closed instead of buffered without bound.
  std::size_t max_request_bytes = 8 * 1024;
  /// Byte cap on the /traces/recent response and on a coordinator's own
  /// part of /fleet/traces: the flight recorder keeps up to capacity *
  /// threads events, and an unbounded dump over a slow connection would
  /// wedge the accept thread. The oldest events drop first
  /// (to_chrome_json's `droppedEvents` marks the cut). 0 = unbounded.
  std::size_t max_trace_response_bytes = 4 * 1024 * 1024;
  /// Minimum interval between /traces/recent dumps; requests inside the
  /// window get 429 Too Many Requests. Dumping walks and serializes
  /// every thread ring under its locks, so a scrape loop pointed at the
  /// trace route by mistake must not become a recording stall. 0 = no
  /// limit.
  int trace_dump_min_interval_ms = 100;
};

/// Verdict of an installed health check (see set_health_check()).
struct HealthVerdict {
  bool healthy = true;
  /// JSON body served with the probe response (200 when healthy, 503
  /// when not). Empty falls back to {"status":"ok"} / {"status":"degraded"}.
  std::string body;
};

class ScrapeServer {
 public:
  explicit ScrapeServer(ScrapeServerOptions options = {});
  ~ScrapeServer();

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Registers a GET route served by `handler` (returns the body).
  /// Must be called before start(); the built-in routes cannot be
  /// overridden. Handlers run on the accept thread.
  void add_route(std::string path, std::string content_type,
                 std::function<std::string()> handler);

  /// Installs the /healthz verdict callback (nullptr restores the
  /// unconditional "ok"). Must be called before start().
  void set_health_check(std::function<HealthVerdict()> check);

  /// Binds (on common::TcpServer's retry schedule), listens, and
  /// launches the accept thread. False (with an ERROR log) when the
  /// socket cannot be bound.
  bool start();

  /// Stops accepting, cuts off the request in progress, and joins the
  /// accept thread. Idempotent; also run by the destructor.
  void stop();

  bool running() const noexcept { return server_.running(); }

  /// The bound port (resolves port 0 requests); 0 before start().
  std::uint16_t port() const noexcept { return server_.port(); }

  const ScrapeServerOptions& options() const noexcept { return options_; }

 private:
  struct Route {
    std::string content_type;
    std::function<std::string()> handler;
  };

  void serve(int fd);
  void add_request_counter(const std::string& path);

  /// Monotonic ms of the last served /traces/recent dump (accept-thread
  /// only; atomic so a future multi-acceptor stays correct).
  std::atomic<std::int64_t> last_trace_dump_ms_{-1};

  ScrapeServerOptions options_;
  std::map<std::string, Route> routes_;
  std::function<HealthVerdict()> health_check_;
  /// Request counters, resolved when a route is registered: each
  /// built-in and registered route has its own series, and every other
  /// request path counts under path="other" without being stored.
  std::map<std::string, Counter*, std::less<>> request_counters_;
  Counter& other_requests_;
  common::TcpServer server_;  // last: its thread serves from the above
};

}  // namespace appclass::obs
