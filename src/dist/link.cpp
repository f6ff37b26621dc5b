#include "dist/link.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/net.hpp"
#include "dist/wire.hpp"
#include "obs/cardinality.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::dist {

namespace {

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peer label guard shared by every link in the process: a coordinator
/// pointed at a churning worker set keeps bounded series cardinality.
const std::string& peer_label(const std::string& host, std::uint16_t port) {
  static obs::BoundedLabelSet peers(32);
  return peers.admit(host + ":" + std::to_string(port));
}

}  // namespace

WorkerLink::WorkerLink(std::string host, std::uint16_t port,
                       WorkerLinkOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      e2e_durable_hist_(obs::MetricsRegistry::global().histogram(
          "appclass_e2e_durable_ack_seconds")),
      ack_rtt_hist_(obs::MetricsRegistry::global().histogram(
          "appclass_dist_link_ack_rtt_seconds",
          {{"peer", peer_label(host_, port_)}})),
      horizon_lag_gauge_(obs::MetricsRegistry::global().gauge(
          "appclass_dist_link_wal_horizon_lag",
          {{"peer", peer_label(host_, port_)}})),
      sent_total_(obs::MetricsRegistry::global().counter(
          "appclass_dist_link_sent_total")) {}

WorkerLink::~WorkerLink() { disconnect(); }

bool WorkerLink::stop_requested() const {
  return options_.should_stop && options_.should_stop();
}

void WorkerLink::disconnect() {
  if (fd_ < 0) return;
  // The reader blocks in recv on fd_: wake it and join it before the
  // close, or the fd number could be reused under it.
  ::shutdown(fd_, SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
  fd_ = -1;
}

bool WorkerLink::ensure_connected() {
  if (fd_ >= 0) return true;
  int backoff_ms = options_.backoff_initial_ms;
  bool first_attempt = true;
  while (!stop_requested()) {
    if (!first_attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    first_attempt = false;

    const int fd = common::connect_tcp(host_, port_, options_.io_timeout_ms);
    if (fd < 0) continue;

    // The hello is the worker's durable horizon; everything the resume
    // logic needs arrives in this one message.
    std::uint8_t raw[kHelloBytes];
    Hello hello;
    if (common::recv_exact(fd, raw, kHelloBytes) != 0 ||
        decode_hello({raw, kHelloBytes}, hello) != DecodeStatus::kOk) {
      ::close(fd);
      continue;
    }

    fd_ = fd;
    if (!seq_adopted_) {
      // First contact: a worker resuming from its state dir starts
      // mid-sequence; number our frames from its horizon.
      next_seq_ = hello.wal_next;
      seq_adopted_ = true;
    } else {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global()
          .counter("appclass_dist_link_reconnects_total")
          .inc();
      // Frames below the horizon were durable before the crash: retire
      // them as acked (the ack itself died with the connection, so no
      // RTT sample, but announce->durable is real — this is exactly the
      // slow path the freshness SLO exists to catch).
      {
        const std::lock_guard lock(mutex_);
        while (!unacked_.empty() && unacked_.front().seq < hello.wal_next)
          retire_front(/*acked_on_wire=*/false);
      }
      if (hello.wal_next > next_seq_)
        APPCLASS_LOG_WARN("dist.link_horizon_ahead", {"port", port_},
                          {"hello", hello.wal_next}, {"next", next_seq_});
      bool resent_ok = true;
      for (Pending& pending : unacked_) {
        pending.sent_steady_us = steady_now_us();
        if (common::send_all(fd_, pending.bytes.data(),
                             pending.bytes.size()) != 0) {
          resent_ok = false;
          break;
        }
      }
      if (!resent_ok) {
        disconnect();
        continue;
      }
      APPCLASS_LOG_INFO("dist.link_resumed", {"port", port_},
                        {"horizon", hello.wal_next},
                        {"resent", unacked_.size()});
    }
    // No reader runs while the link is down, so the flag needs no lock.
    reader_failed_ = false;
    reader_ = std::thread([this, fd] { read_acks(fd); });
    return true;
  }
  return false;
}

void WorkerLink::retire_front(bool acked_on_wire) {
  const Pending& front = unacked_.front();
  if (acked_on_wire && front.sent_steady_us > 0) {
    const double rtt_s = static_cast<double>(std::max<std::int64_t>(
                             steady_now_us() - front.sent_steady_us, 0)) *
                         1e-6;
    ack_rtt_hist_.observe(rtt_s);
  }
  if (front.announce_us > 0) {
    const std::uint64_t now_us = wall_now_us();
    const double e2e_s =
        now_us > front.announce_us
            ? static_cast<double>(now_us - front.announce_us) * 1e-6
            : 0.0;  // clamp cross-host clock skew to zero
    e2e_durable_hist_.observe(e2e_s);
    // Slowest traced announce wins the exemplar: the trace id a human
    // follows from the latency histogram into /fleet/traces.
    if (front.trace_id != 0 && e2e_s >= e2e_durable_hist_.exemplar_value())
      e2e_durable_hist_.set_exemplar(e2e_s, front.trace_id);
    if (options_.on_durable) options_.on_durable(e2e_s);
  }
  acked_.fetch_add(1, std::memory_order_relaxed);
  unacked_.pop_front();
  in_flight_.store(unacked_.size(), std::memory_order_relaxed);
  horizon_lag_gauge_.set(static_cast<double>(unacked_.size()));
}

void WorkerLink::apply_ack(std::uint64_t seq) {
  // Acks are cumulative: seq and everything below is durable.
  while (!unacked_.empty() && unacked_.front().seq <= seq)
    retire_front(/*acked_on_wire=*/true);
}

void WorkerLink::read_acks(int fd) {
  // Acks are fixed-size; a recv that splits one leaves its head at the
  // front of the buffer for the next read.
  std::array<std::uint8_t, 64 * kAckBytes> buffer;
  std::size_t filled = 0;
  bool ok = true;
  try {
    while (ok) {
      const ssize_t n = common::recv_some(fd, buffer.data() + filled,
                                          buffer.size() - filled);
      // The receive timeout of a link with nothing in flight: the waits
      // in send() and flush() bound how long an ack may take.
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) break;  // EOF, socket error, or disconnect()'s shutdown
      filled += static_cast<std::size_t>(n);
      const std::size_t whole = filled - filled % kAckBytes;
      {
        const std::lock_guard lock(mutex_);
        for (std::size_t at = 0; ok && at < whole; at += kAckBytes) {
          std::uint64_t seq = 0;
          ok = decode_ack({buffer.data() + at, kAckBytes}, seq) ==
               DecodeStatus::kOk;
          if (ok) apply_ack(seq);
        }
      }
      acked_cv_.notify_all();
      std::memmove(buffer.data(), buffer.data() + whole, filled - whole);
      filled -= whole;
    }
  } catch (...) {
    const std::lock_guard lock(mutex_);
    reader_error_ = std::current_exception();
  }
  {
    const std::lock_guard lock(mutex_);
    reader_failed_ = true;
  }
  acked_cv_.notify_all();
}

bool WorkerLink::await_acks(std::size_t bound) {
  const auto timeout = std::chrono::milliseconds(options_.io_timeout_ms);
  for (;;) {
    if (stop_requested() || !ensure_connected()) return false;
    std::unique_lock lock(mutex_);
    const std::uint64_t before = acked_.load(std::memory_order_relaxed);
    acked_cv_.wait_for(lock, timeout, [&] {
      return reader_failed_ || unacked_.size() < bound ||
             acked_.load(std::memory_order_relaxed) != before;
    });
    if (reader_error_)
      std::rethrow_exception(std::exchange(reader_error_, nullptr));
    if (!reader_failed_) {
      if (unacked_.size() < bound) return true;
      // Still retiring: re-check the stop predicate, then wait again.
      if (acked_.load(std::memory_order_relaxed) != before) continue;
    }
    // EOF, a bad ack, or no ack for io_timeout_ms (the worker stalled):
    // reconnect and resend.
    lock.unlock();
    disconnect();
  }
}

bool WorkerLink::send(const metrics::Snapshot& snapshot,
                      const obs::TraceContext& trace) {
  // Wait for room in the window.
  if (!await_acks(options_.window)) return false;

  const std::uint64_t announce_us = wall_now_us();
  Pending pending{next_seq_,
                  encode_frame(snapshot, next_seq_, trace, announce_us),
                  announce_us, trace.trace_id, 0};
  ++next_seq_;
  sent_.fetch_add(1, std::memory_order_relaxed);
  sent_total_.inc();
  bool written = false;
  {
    // The write happens under the lock so the reader cannot retire the
    // frame (on an ack for a seq not yet sent) while its bytes are read.
    const std::lock_guard lock(mutex_);
    pending.sent_steady_us = steady_now_us();
    unacked_.push_back(std::move(pending));
    in_flight_.store(unacked_.size(), std::memory_order_relaxed);
    horizon_lag_gauge_.set(static_cast<double>(unacked_.size()));
    const std::vector<std::uint8_t>& bytes = unacked_.back().bytes;
    written = common::send_all(fd_, bytes.data(), bytes.size()) == 0;
  }
  // A failed write leaves the frame in unacked_; the reconnect in the
  // next call resends it. The frame is committed either way.
  if (!written) disconnect();
  return true;
}

bool WorkerLink::flush() {
  // Nothing in flight: nothing to wait for, and no reason to reconnect.
  if (in_flight() == 0) return true;
  return await_acks(1);
}

}  // namespace appclass::dist
