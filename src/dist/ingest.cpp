#include "dist/ingest.hpp"

#include <cerrno>

#include "common/net.hpp"
#include "dist/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::dist {

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
  if (server_.running()) return true;
  if (const int error =
          server_.start(options_.bind_address, options_.port,
                        [this](int fd) { handle_connection(fd); })) {
    APPCLASS_LOG_ERROR("dist.ingest_bind_failed", {"errno", error},
                       {"address", options_.bind_address},
                       {"port", options_.port});
    return false;
  }
  APPCLASS_LOG_INFO("dist.ingest_started", {"port", port()},
                    {"expected", expected()});
  return true;
}

void IngestListener::stop() {
  if (server_.stop())
    APPCLASS_LOG_INFO("dist.ingest_stopped", {"port", port()});
}

void IngestListener::handle_connection(int fd) {
  connections_.fetch_add(1, std::memory_order_relaxed);
  connections_total_.inc();

  {
    const auto hello = encode_hello({.wal_next = expected()});
    if (common::send_all(fd, hello.data(), hello.size()) != 0) return;
  }

  FrameDecoder decoder;
  std::uint8_t buffer[8192];
  Frame frame;  // decoded in place, frame after frame
  while (server_.running()) {
    const DecodeStatus status = decoder.next(frame);
    if (status == DecodeStatus::kNeedMore) {
      const ssize_t n = common::recv_some(fd, buffer, sizeof buffer);
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
      if (common::send_all(fd, ack.data(), ack.size()) != 0) return;
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
    if (common::send_all(fd, ack.data(), ack.size()) != 0) return;
  }
}

}  // namespace appclass::dist
