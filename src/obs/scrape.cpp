#include "obs/scrape.hpp"

#include <chrono>

#include "common/net.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace appclass::obs {
namespace {

/// Reads until the end of the HTTP header block (CRLFCRLF), a timeout,
/// peer close, or the size cap. Bodies are ignored — every route is GET.
std::string read_request(int fd, std::size_t max_bytes) {
  std::string request;
  char buffer[1024];
  while (request.size() < max_bytes) {
    const ssize_t n = common::recv_some(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
    if (request.find("\r\n\r\n") != std::string::npos) break;
  }
  return request;
}

/// Head and body leave in one send_all: two writes would put the body
/// behind a small head segment. A failed send is the client's loss only.
void send_response(int fd, std::string_view status,
                   std::string_view content_type, std::string_view body) {
  std::string response;
  response.reserve(160 + body.size());
  response.append("HTTP/1.1 ");
  response.append(status);
  response.append("\r\nContent-Type: ");
  response.append(content_type);
  response.append("\r\nContent-Length: ");
  response.append(std::to_string(body.size()));
  response.append("\r\nConnection: close\r\n\r\n");
  response.append(body);
  (void)common::send_all(fd, response.data(), response.size());
}

struct RequestLine {
  std::string method;
  std::string path;
};

RequestLine parse_request_line(std::string_view request) {
  RequestLine out;
  const std::size_t eol = request.find("\r\n");
  std::string_view line =
      eol == std::string_view::npos ? request : request.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return out;
  out.method = std::string(line.substr(0, sp1));
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view target = sp2 == std::string_view::npos
                                ? line.substr(sp1 + 1)
                                : line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Drop any query string; the routes take no parameters.
  const std::size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);
  out.path = std::string(target);
  return out;
}

}  // namespace

ScrapeServer::ScrapeServer(ScrapeServerOptions options)
    : options_(std::move(options)),
      other_requests_(MetricsRegistry::global().counter(
          "appclass_scrape_requests_total", {{"path", "other"}})) {
  add_request_counter("/metrics");
  add_request_counter("/healthz");
  add_request_counter("/traces/recent");
}

void ScrapeServer::add_request_counter(const std::string& path) {
  request_counters_.emplace(
      path, &MetricsRegistry::global().counter(
                "appclass_scrape_requests_total", {{"path", path}}));
}

void ScrapeServer::add_route(std::string path, std::string content_type,
                             std::function<std::string()> handler) {
  if (running()) return;
  if (path == "/metrics" || path == "/healthz" || path == "/traces/recent")
    return;
  add_request_counter(path);
  routes_[std::move(path)] =
      Route{std::move(content_type), std::move(handler)};
}

void ScrapeServer::set_health_check(std::function<HealthVerdict()> check) {
  if (running()) return;
  health_check_ = std::move(check);
}

ScrapeServer::~ScrapeServer() { stop(); }

bool ScrapeServer::start() {
  if (running()) return true;
  if (const int error = server_.start(options_.bind_address, options_.port,
                                      [this](int fd) { serve(fd); })) {
    APPCLASS_LOG_ERROR("scrape.bind_failed", {"errno", error},
                       {"address", options_.bind_address},
                       {"port", options_.port});
    return false;
  }
  APPCLASS_LOG_INFO("scrape.started", {"address", options_.bind_address},
                    {"port", port()});
  return true;
}

void ScrapeServer::stop() {
  if (server_.stop()) APPCLASS_LOG_INFO("scrape.stopped", {"port", port()});
}

void ScrapeServer::serve(int fd) {
  auto& registry = MetricsRegistry::global();
  const std::string raw = read_request(fd, options_.max_request_bytes);
  // The cap was hit without a complete header block: refuse rather
  // than buffer an unbounded header stream.
  if (raw.size() >= options_.max_request_bytes &&
      raw.find("\r\n\r\n") == std::string::npos) {
    send_response(fd, "431 Request Header Fields Too Large", "text/plain",
                  "request too large\n");
    return;
  }
  const RequestLine request = parse_request_line(raw);
  const auto counter = request_counters_.find(request.path);
  (counter != request_counters_.end() ? *counter->second : other_requests_)
      .inc();

  if (request.method != "GET") {
    send_response(fd, "405 Method Not Allowed", "text/plain",
                  "method not allowed\n");
  } else if (request.path == "/metrics") {
    send_response(fd, "200 OK",
                  "text/plain; version=0.0.4; charset=utf-8",
                  to_prometheus(registry.snapshot()));
  } else if (request.path == "/healthz") {
    if (!health_check_) {
      send_response(fd, "200 OK", "text/plain", "ok\n");
    } else {
      const HealthVerdict verdict = health_check_();
      const std::string_view body =
          !verdict.body.empty()
              ? std::string_view(verdict.body)
              : verdict.healthy
                    ? std::string_view("{\"status\":\"ok\"}")
                    : std::string_view("{\"status\":\"degraded\"}");
      send_response(fd,
                    verdict.healthy ? "200 OK" : "503 Service Unavailable",
                    "application/json", body);
    }
  } else if (request.path == "/traces/recent") {
    // Dumping serializes every thread ring; bound both the response
    // size and the dump rate so the trace route cannot be used (or
    // misused) to stall recording threads or flood the wire.
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const std::int64_t last =
        last_trace_dump_ms_.load(std::memory_order_relaxed);
    if (options_.trace_dump_min_interval_ms > 0 && last >= 0 &&
        now_ms - last < options_.trace_dump_min_interval_ms) {
      registry.counter("appclass_scrape_trace_throttled_total").inc();
      send_response(fd, "429 Too Many Requests", "text/plain",
                    "trace dump rate limited\n");
    } else {
      last_trace_dump_ms_.store(now_ms, std::memory_order_relaxed);
      send_response(fd, "200 OK", "application/json",
                    TraceRecorder::global().to_chrome_json(
                        options_.max_trace_response_bytes));
    }
  } else if (const auto it = routes_.find(request.path);
             it != routes_.end()) {
    send_response(fd, "200 OK", it->second.content_type,
                  it->second.handler());
  } else {
    send_response(fd, "404 Not Found", "text/plain", "not found\n");
  }
}

}  // namespace appclass::obs
