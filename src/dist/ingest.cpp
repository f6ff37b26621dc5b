#include "dist/ingest.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "dist/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::dist {

namespace {

timeval to_timeval(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal, not failure: retry
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

IngestListener::IngestListener(IngestListenerOptions options, Sink sink,
                               std::uint64_t start_seq)
    : options_(std::move(options)),
      sink_(std::move(sink)),
      frames_total_(obs::MetricsRegistry::global().counter(
          "appclass_dist_frames_total")),
      duplicates_total_(obs::MetricsRegistry::global().counter(
          "appclass_dist_duplicates_total")),
      errors_total_(obs::MetricsRegistry::global().counter(
          "appclass_dist_protocol_errors_total")),
      connections_total_(obs::MetricsRegistry::global().counter(
          "appclass_dist_connections_total")),
      e2e_ingest_hist_(obs::MetricsRegistry::global().histogram(
          "appclass_e2e_ingest_seconds")),
      expected_(start_seq) {}

IngestListener::~IngestListener() { stop(); }

bool IngestListener::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    APPCLASS_LOG_ERROR("dist.ingest_socket_failed", {"errno", errno});
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    APPCLASS_LOG_ERROR("dist.ingest_bad_address",
                       {"address", options_.bind_address});
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // Same restart-over-dying-socket bind loop as the scrape server: a
  // supervised worker restarting after SIGKILL must reclaim its port.
  int backoff_ms = options_.bind_retry_initial_ms;
  bool listening = false;
  for (int attempt = 0; attempt <= options_.bind_retries; ++attempt) {
    if (attempt > 0) {
      APPCLASS_LOG_WARN("dist.ingest_bind_retry", {"attempt", attempt},
                        {"port", options_.port}, {"backoff_ms", backoff_ms});
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 2000);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
            0 &&
        ::listen(listen_fd_, 4) == 0) {
      listening = true;
      break;
    }
  }
  if (!listening) {
    APPCLASS_LOG_ERROR("dist.ingest_bind_failed", {"errno", errno},
                       {"port", options_.port});
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  APPCLASS_LOG_INFO("dist.ingest_started", {"port", port_},
                    {"expected", expected()});
  return true;
}

void IngestListener::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  // Kick the in-flight connection too, or the thread would linger until
  // its read timeout expires. Taking it from conn_fd_ makes closing it
  // this call's job.
  const int conn = conn_fd_.exchange(-1, std::memory_order_acq_rel);
  if (conn >= 0) ::shutdown(conn, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  // The accept thread reads listen_fd_ until it exits.
  if (conn >= 0) ::close(conn);
  ::close(listen_fd_);
  listen_fd_ = -1;
  APPCLASS_LOG_INFO("dist.ingest_stopped", {"port", port_});
}

void IngestListener::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    const timeval tv = to_timeval(options_.read_timeout_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    // Acks are small writes answering the link's pipelined frames; with
    // Nagle on, an ack queued behind an unacknowledged one waits for the
    // peer's delayed ACK (~40 ms) before it leaves.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conn_fd_.store(fd, std::memory_order_release);
    handle_connection(fd);
    const int prev = conn_fd_.exchange(-1, std::memory_order_acq_rel);
    if (prev >= 0) ::close(prev);
  }
}

void IngestListener::handle_connection(int fd) {
  connections_total_.inc();

  {
    const auto hello = encode_hello({.wal_next = expected()});
    if (!send_all(fd, hello.data(), hello.size())) return;
  }

  FrameDecoder decoder;
  std::uint8_t buffer[8192];
  Frame frame;  // decoded in place, frame after frame
  while (running_.load(std::memory_order_acquire)) {
    const DecodeStatus status = decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;  // signal, not failure: retry
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        continue;  // idle between replay cycles; just keep listening
      if (n <= 0) return;  // 0 = peer closed; < 0 = real socket error
      decoder.append({buffer, static_cast<std::size_t>(n)});
      continue;
    }
    if (status != DecodeStatus::kOk) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      errors_total_.inc();
      APPCLASS_LOG_WARN("dist.ingest_bad_frame",
                        {"status", to_string(status)});
      return;
    }

    const std::uint64_t expected = expected_.load(std::memory_order_acquire);
    if (frame.seq < expected) {
      // Retransmit of a frame that is already durable: the ack was lost
      // with the previous connection. Re-ack, do not re-ingest.
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      duplicates_total_.inc();
      const auto ack = encode_ack(frame.seq);
      if (!send_all(fd, ack.data(), ack.size())) return;
      continue;
    }
    if (frame.seq > expected ||
        frame.snapshot.time % options_.sampling_interval_s != 0) {
      // A sequence gap or an off-grid snapshot breaks the frame-seq ==
      // WAL-seq invariant; there is no coherent way to ack it.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      errors_total_.inc();
      APPCLASS_LOG_WARN("dist.ingest_protocol_error", {"seq", frame.seq},
                        {"expected", expected},
                        {"time", frame.snapshot.time});
      return;
    }

    bool accepted = false;
    {
      // Adopt the coordinator's context so the ingest span lands in the
      // same trace as the announce span that produced this frame.
      obs::ScopedTraceContext adopted(frame.trace);
      obs::TraceSpan span("dist_ingest");
      if (span.recording()) {
        span.add_attr({"seq", frame.seq});
        span.add_attr({"node", frame.snapshot.node_ip});
      }
      accepted = sink_(frame.snapshot);
    }
    if (!accepted) {
      // Backlog full: drop the connection unacked; the coordinator will
      // reconnect and resend once the drain catches up.
      APPCLASS_LOG_WARN("dist.ingest_backpressure", {"seq", frame.seq});
      return;
    }
    frames_total_.inc();
    if (frame.announce_us > 0) {
      // Announce->ingested latency across the process boundary; the two
      // hosts' wall clocks may disagree, so negative skew clamps to 0.
      const std::uint64_t now_us = wall_now_us();
      const double e2e_s =
          now_us > frame.announce_us
              ? static_cast<double>(now_us - frame.announce_us) * 1e-6
              : 0.0;
      e2e_ingest_hist_.observe(e2e_s);
      if (frame.trace.trace_id != 0 &&
          e2e_s >= e2e_ingest_hist_.exemplar_value())
        e2e_ingest_hist_.set_exemplar(e2e_s, frame.trace.trace_id);
    }
    expected_.store(expected + 1, std::memory_order_release);
    const auto ack = encode_ack(frame.seq);
    if (!send_all(fd, ack.data(), ack.size())) return;
  }
}

}  // namespace appclass::dist
