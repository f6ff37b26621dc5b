// Scrape endpoint: route behaviour, Prometheus payload, request
// accounting, registered JSON routes, health-check verdicts, and
// concurrent-request safety, exercised over real loopback sockets.
#include "obs/scrape.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace appclass {
namespace {

/// A blocking client socket connected to 127.0.0.1:port, or -1.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking one-shot HTTP client: sends `request_line` + empty header
/// block to 127.0.0.1:port and returns the whole response.
std::string http_request(std::uint16_t port,
                         const std::string& request_line) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string request =
      request_line + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
    response.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

class ObsScrapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<obs::ScrapeServer>();  // port 0: ephemeral
    ASSERT_TRUE(server_->start());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<obs::ScrapeServer> server_;
};

TEST_F(ObsScrapeTest, HealthzRespondsOk) {
  const std::string response =
      http_request(server_->port(), "GET /healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST_F(ObsScrapeTest, MetricsServesPrometheusText) {
  obs::MetricsRegistry::global()
      .counter("appclass_scrape_test_probe_total")
      .inc();
  const std::string response =
      http_request(server_->port(), "GET /metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE"), std::string::npos);
  EXPECT_NE(response.find("appclass_scrape_test_probe_total"),
            std::string::npos);
}

TEST_F(ObsScrapeTest, TracesRecentServesChromeJson) {
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(true);
  { obs::TraceSpan span("scraped_span"); }
  obs::set_tracing_enabled(false);

  const std::string response =
      http_request(server_->port(), "GET /traces/recent");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(response.find("scraped_span"), std::string::npos);
}

TEST_F(ObsScrapeTest, UnknownPathIs404) {
  const std::string response =
      http_request(server_->port(), "GET /nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
}

TEST_F(ObsScrapeTest, NonGetIs405) {
  const std::string response =
      http_request(server_->port(), "POST /metrics");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
}

TEST_F(ObsScrapeTest, QueryStringsAreIgnoredInRouting) {
  const std::string response =
      http_request(server_->port(), "GET /healthz?verbose=1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
}

TEST_F(ObsScrapeTest, RequestsAreCounted) {
  const auto count = [] {
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto* c = snapshot.find_counter("appclass_scrape_requests_total",
                                          {{"path", "/healthz"}});
    return c ? c->value : std::uint64_t{0};
  };
  const std::uint64_t before = count();
  (void)http_request(server_->port(), "GET /healthz");
  (void)http_request(server_->port(), "GET /healthz");
  EXPECT_EQ(count(), before + 2);
}

TEST(ObsScrapeRoutes, RegisteredRouteServesItsHandler) {
  obs::ScrapeServer server;
  server.add_route("/classes", "application/json",
                   [] { return std::string("{\"classes\":[]}"); });
  ASSERT_TRUE(server.start());
  const std::string response = http_request(server.port(), "GET /classes");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("{\"classes\":[]}"), std::string::npos);
  server.stop();
}

/// Registry series of appclass_scrape_requests_total, by path label.
std::vector<std::string> request_counter_paths() {
  std::vector<std::string> paths;
  for (const auto& c : obs::MetricsRegistry::global().snapshot().counters)
    if (c.name == "appclass_scrape_requests_total")
      for (const auto& [key, value] : c.labels)
        if (key == "path") paths.push_back(value);
  return paths;
}

TEST(ObsScrapeRoutes, EveryRegisteredRouteHasItsOwnCounter) {
  // More routes than any fixed label budget: the coordinator registers
  // nine of its own besides the three built-ins.
  obs::ScrapeServer server;
  std::vector<std::string> routes;
  for (int i = 0; i < 12; ++i) {
    routes.push_back("/route" + std::to_string(i));
    server.add_route(routes.back(), "text/plain",
                     [] { return std::string("ok\n"); });
  }
  const std::vector<std::string> paths = request_counter_paths();
  for (const std::string& route : routes)
    EXPECT_EQ(std::count(paths.begin(), paths.end(), route), 1) << route;

  ASSERT_TRUE(server.start());
  // The found pointer points into the snapshot, so the snapshot is held
  // in a named local until the value is read.
  const auto count = [](const std::string& path) {
    const obs::RegistrySnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    const auto* c = snapshot.find_counter("appclass_scrape_requests_total",
                                          {{"path", path}});
    return c ? c->value : std::uint64_t{0};
  };
  const std::uint64_t last_before = count(routes.back());
  const std::uint64_t other_before = count("other");
  const std::string response = http_request(server.port(), "GET /route11");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(count(routes.back()), last_before + 1);
  EXPECT_EQ(count("other"), other_before);
  server.stop();
}

TEST(ObsScrapeRoutes, UnknownPathsCountUnderOtherAndAddNoSeries) {
  obs::ScrapeServer server;
  ASSERT_TRUE(server.start());
  const auto other = [] {
    const obs::RegistrySnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    const auto* c = snapshot.find_counter("appclass_scrape_requests_total",
                                          {{"path", "other"}});
    return c ? c->value : std::uint64_t{0};
  };
  const std::size_t series_before = request_counter_paths().size();
  const std::uint64_t other_before = other();
  for (int i = 0; i < 1000; ++i)
    (void)http_request(server.port(), "GET /junk/" + std::to_string(i));
  EXPECT_EQ(other(), other_before + 1000);
  EXPECT_EQ(request_counter_paths().size(), series_before);
  server.stop();
}

TEST(ObsScrapeRoutes, BuiltInsCannotBeShadowed) {
  obs::ScrapeServer server;
  server.add_route("/metrics", "text/plain", [] { return std::string("x"); });
  ASSERT_TRUE(server.start());
  const std::string response = http_request(server.port(), "GET /metrics");
  // Still the Prometheus exposition, not the would-be override.
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  server.stop();
}

TEST(ObsScrapeRoutes, HealthCheckDrivesHealthzStatus) {
  obs::ScrapeServer server;
  std::atomic<bool> healthy{true};
  server.set_health_check([&healthy] {
    return healthy.load()
               ? obs::HealthVerdict{true, "{\"status\":\"ok\"}"}
               : obs::HealthVerdict{
                     false,
                     "{\"status\":\"degraded\",\"degraded_nodes\":1}"};
  });
  ASSERT_TRUE(server.start());

  std::string response = http_request(server.port(), "GET /healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  healthy.store(false);
  response = http_request(server.port(), "GET /healthz");
  EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(response.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  server.stop();
}

TEST(ObsScrapeRoutes, ConcurrentRequestsDuringRecordingStayConsistent) {
  // N client threads hammer /metrics, /drift, and /healthz while another
  // thread records into the ModelHealth backing the routes — the
  // scrape-server equivalent of scraping mid-drain.
  obs::ModelHealthOptions options;
  options.class_names = {"idle", "busy"};
  obs::ModelHealth health(options);

  obs::ScrapeServer server;
  server.add_route("/drift", "application/json",
                   [&health] { return health.drift_json(); });
  server.set_health_check([&health] {
    const obs::ModelHealth::Status status = health.status();
    return obs::HealthVerdict{status.healthy, status.reason_json};
  });
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      obs::HealthSample sample;
      sample.node_ip = "10.0.0.1";
      sample.class_index = i++ % 2;
      sample.confidence = 0.9;
      const double projected[2] = {0.1, -0.2};
      sample.projected = projected;
      health.record(sample);
    }
  });

  constexpr int kThreads = 4;
  constexpr int kRequestsEach = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const char* paths[] = {"GET /metrics", "GET /drift", "GET /healthz"};
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string response =
            http_request(server.port(), paths[(t + i) % 3]);
        if (response.find("HTTP/1.1 200 OK") == std::string::npos)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  recorder.join();
  server.stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(health.samples(), 0u);
}

TEST(ObsScrapeLifecycle, StopIsIdempotentAndPortIsReusable) {
  obs::ScrapeServer first;
  ASSERT_TRUE(first.start());
  const std::uint16_t port = first.port();
  first.stop();
  first.stop();  // idempotent
  EXPECT_FALSE(first.running());

  // SO_REUSEADDR: a new server can bind the just-released port.
  obs::ScrapeServer second({.bind_address = "127.0.0.1", .port = port});
  EXPECT_TRUE(second.start());
  second.stop();
}

TEST(ObsScrapeLifecycle, StopDoesNotWaitOutAnIdleClient) {
  obs::ScrapeServer server;
  ASSERT_TRUE(server.start());
  // A client that connects and sends nothing parks the accept thread in
  // its request read, which only the 2 s receive timeout would end.
  const int idle = connect_loopback(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  const auto took = std::chrono::steady_clock::now() - begin;
  ::close(idle);
  EXPECT_FALSE(server.running());
  EXPECT_LT(took, std::chrono::milliseconds(500));
}

TEST(ObsScrapeHardening, OversizedRequestIsRefusedWith431) {
  obs::ScrapeServer server({.max_request_bytes = 512});
  ASSERT_TRUE(server.start());
  // Header stream that never completes: longer than the cap with no
  // terminating CRLFCRLF until far past it.
  std::string huge_header = "GET /metrics HTTP/1.1\r\nX-Padding: ";
  huge_header.append(2048, 'x');
  const std::string response = http_request(server.port(), huge_header);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  server.stop();

  // A normal-size request against the same cap still succeeds.
  obs::ScrapeServer ok({.max_request_bytes = 512});
  ASSERT_TRUE(ok.start());
  const std::string healthz = http_request(ok.port(), "GET /healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  ok.stop();
}

TEST(ObsScrapeHardening, TraceResponseIsByteCappedWithVisibleDrop) {
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(true);
  for (int i = 0; i < 200; ++i) {
    obs::TraceSpan span("cap_test_span_with_a_reasonably_long_name");
  }
  obs::set_tracing_enabled(false);

  obs::ScrapeServer server({.max_trace_response_bytes = 1024});
  ASSERT_TRUE(server.start());
  const std::string response =
      http_request(server.port(), "GET /traces/recent");
  server.stop();

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  // 200 spans cannot fit 1KiB: the body stays under the cap and the
  // truncation is visible rather than silent.
  const std::size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_LE(response.size() - (body + 4), 1024u);
  EXPECT_NE(response.find("\"droppedEvents\":"), std::string::npos);
}

TEST(ObsScrapeHardening, RapidTraceDumpsAreRateLimitedWith429) {
  const auto throttled = [] {
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto* c =
        snapshot.find_counter("appclass_scrape_trace_throttled_total");
    return c ? c->value : std::uint64_t{0};
  };
  obs::ScrapeServer server({.trace_dump_min_interval_ms = 60000});
  ASSERT_TRUE(server.start());

  const std::uint64_t before = throttled();
  const std::string first =
      http_request(server.port(), "GET /traces/recent");
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
  // Inside the min-interval window: refused, so a scrape loop pointed
  // at the trace route cannot stall recording.
  const std::string second =
      http_request(server.port(), "GET /traces/recent");
  EXPECT_NE(second.find("HTTP/1.1 429"), std::string::npos) << second;
  EXPECT_EQ(throttled(), before + 1);
  // Other routes are unaffected by the trace throttle.
  const std::string metrics = http_request(server.port(), "GET /metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  server.stop();
}

TEST(ObsScrapeHardening, BindRetryClaimsPortReleasedDuringBackoff) {
  obs::ScrapeServer holder;
  ASSERT_TRUE(holder.start());
  const std::uint16_t port = holder.port();

  // The port freeing up at 60 ms, before the first retry at 100 ms on
  // the fixed bind schedule, lets start() succeed — the
  // restarted-worker-reclaims-port scenario.
  std::thread releaser([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    holder.stop();
  });
  obs::ScrapeServer patient({.bind_address = "127.0.0.1", .port = port});
  EXPECT_TRUE(patient.start());
  releaser.join();
  patient.stop();
}

}  // namespace
}  // namespace appclass
