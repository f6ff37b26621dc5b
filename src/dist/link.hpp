// Coordinator-side link to one shard worker's ingest listener.
//
// A WorkerLink owns the TCP connection, the per-shard sequence counter,
// and the sliding window of sent-but-unacked frames that makes delivery
// exactly-once across worker crashes:
//
//   * connect reads the worker's hello (its durable WAL horizon). On the
//     first connect the link adopts it as the starting sequence number
//     (a worker resuming from a checkpointed state dir starts mid-
//     sequence); on reconnects, unacked frames below the horizon were
//     durable before the crash and are retired, the rest are resent in
//     order.
//   * each connection has its own ack reader thread, started after the
//     hello and the resend. It blocks in recv and retires frames the
//     moment their cumulative ack arrives, so the sender learns a frame
//     is durable at fsync speed, not at its next send.
//   * send() stamps the next sequence number, buffers the encoded frame
//     in the unacked window, and writes it. When the window is full the
//     call waits for the reader to retire frames — bounded in-flight
//     data is the backpressure: a worker that stops acking stops the
//     coordinator.
//   * a write failure, the reader seeing EOF or a bad ack, or no ack for
//     `io_timeout_ms` while waiting tears the connection down, and the
//     next wait reconnects with exponential backoff, retrying until the
//     stop predicate fires — a SIGKILLed worker being restarted by its
//     supervisor looks like a long reconnect, not data loss.
//
// Threads: send() and flush() come from one caller (the coordinator's
// replay loop), which alone connects, writes and tears down, so per-link
// ordering (the property the bit-identical aggregate rests on) holds.
// The window is shared with the reader under the link mutex. Stats are
// atomics, readable from any thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::dist {

struct WorkerLinkOptions {
  /// Max frames in flight before send() blocks on acks.
  std::size_t window = 64;
  /// Socket timeouts, and the longest a full window or a flush waits
  /// without any ack before the connection is torn down and reconnected.
  int io_timeout_ms = 2000;
  /// Reconnect backoff: initial, doubling to max.
  int backoff_initial_ms = 100;
  int backoff_max_ms = 2000;
  /// Checked between connect attempts and ack waits; true aborts the
  /// operation (graceful shutdown mid-retry).
  std::function<bool()> should_stop;
  /// Called once per frame when it becomes durable on the worker, with
  /// the announce->durable latency in seconds — the freshness SLI feed
  /// (obs::SloTracker). Runs on the link's reader thread (or, for frames
  /// a reconnect hello retires, on the sending thread) under the link
  /// mutex, so calls are serialized and in seq order per link. Keep it
  /// cheap, and do not call send() or flush() from it. What it throws
  /// on the reader is rethrown from the next send() or flush() wait.
  std::function<void(double)> on_durable;
};

class WorkerLink {
 public:
  WorkerLink(std::string host, std::uint16_t port,
             WorkerLinkOptions options = {});
  ~WorkerLink();

  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  /// Sends one snapshot (next sequence number, carrying `trace`).
  /// Blocks while the window is full or the worker is down; false only
  /// when the stop predicate fired before the frame was written.
  bool send(const metrics::Snapshot& snapshot,
            const obs::TraceContext& trace);

  /// Blocks until every sent frame is acked (== durable in the worker's
  /// WAL); false when the stop predicate fired first.
  bool flush();

  // Stats are atomics so a scrape-route handler on another thread can
  // read them while the replay loop sends and the reader retires.
  std::uint64_t sent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t acked() const noexcept {
    return acked_.load(std::memory_order_relaxed);
  }
  std::uint64_t reconnects() const noexcept {
    return reconnects_.load(std::memory_order_relaxed);
  }
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

 private:
  struct Pending {
    std::uint64_t seq;
    std::vector<std::uint8_t> bytes;
    std::uint64_t announce_us = 0;     ///< wall clock at first send
    std::uint64_t trace_id = 0;        ///< for slow-sample exemplars
    std::int64_t sent_steady_us = 0;   ///< monotonic, reset on resend
  };

  bool ensure_connected();
  /// Stops the reader (shutdown wakes its recv), joins it, then closes.
  void disconnect();
  bool stop_requested() const;
  /// Connects if needed and waits until fewer than `bound` frames are
  /// unacked; false only when the stop predicate fired first.
  bool await_acks(std::size_t bound);
  /// The reader thread's loop over one connection.
  void read_acks(int fd);
  /// Retires every unacked frame up to `seq` (acks are cumulative).
  void apply_ack(std::uint64_t seq);
  /// Retires the head unacked frame: e2e latency histograms, exemplars,
  /// and the on_durable hook. `acked_on_wire` false = retired via a
  /// reconnect hello horizon (no RTT sample: the ack never arrived).
  void retire_front(bool acked_on_wire);

  std::string host_;
  std::uint16_t port_;
  WorkerLinkOptions options_;
  // Cached per-link series (peer-labeled through a BoundedLabelSet so a
  // misconfigured fleet cannot mint unbounded cardinality).
  obs::Histogram& e2e_durable_hist_;
  obs::Histogram& ack_rtt_hist_;
  obs::Gauge& horizon_lag_gauge_;
  obs::Counter& sent_total_;
  // Owned by the sending thread: only it connects, writes and closes.
  int fd_ = -1;
  bool seq_adopted_ = false;
  std::uint64_t next_seq_ = 0;
  // Guards the window and the reader's verdict; acked_cv_ is signalled
  // whenever the reader retires frames or gives up on the connection.
  std::mutex mutex_;
  std::condition_variable acked_cv_;
  std::deque<Pending> unacked_;
  bool reader_failed_ = false;
  /// An exception thrown on the reader (by on_durable), rethrown from
  /// the sending thread's next wait.
  std::exception_ptr reader_error_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::thread reader_;
};

}  // namespace appclass::dist
