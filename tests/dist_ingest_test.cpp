// Ingest-listener tests: a real two-process socket loopback proving WAL
// log order == send order, exactly-once resume across a second sender
// process, the protocol edges (duplicate re-ack, sequence gap, off-grid
// frame) driven by a raw in-process client, and the link's ack reader
// (acks retired without another send, listener restart mid-window, a
// sink stalled past the link's timeout, a throwing on_durable).
#include "dist/ingest.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "dist/link.hpp"
#include "dist/wire.hpp"
#include "monitor/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/wal.hpp"

namespace appclass::dist {
namespace {

metrics::Snapshot grid_snapshot(std::uint64_t i) {
  metrics::Snapshot s;
  s.time = static_cast<metrics::SimTime>(5 * (i + 1));  // on the 5s grid
  s.node_ip = "10.0." + std::to_string(i % 3) + ".1";
  s.set(metrics::MetricId::kCpuUser, static_cast<double>(i));
  return s;
}

void wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Forks a sender process that ships snapshots [first, first+count) over
/// a fresh WorkerLink and exits 0 only after every frame is acked.
void run_sender_process(std::uint16_t port, std::uint64_t first,
                        std::uint64_t count) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery, just send + flush + exit.
    WorkerLink link("127.0.0.1", port);
    for (std::uint64_t i = 0; i < count; ++i)
      if (!link.send(grid_snapshot(first + i), {})) ::_exit(2);
    ::_exit(link.flush() ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
}

TEST(DistIngest, TwoProcessLoopbackLogOrderEqualsSendOrder) {
  char tmpl[] = "/tmp/appclass_dist_ingest_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  constexpr std::uint64_t kFrames = 40;
  {
    persist::WalWriter wal(dir + "/wal",
                           {.fsync = persist::FsyncPolicy::kAlways}, 0);
    std::mutex wal_mutex;
    IngestListener listener(
        {.port = 0, .sampling_interval_s = 5},
        [&](const metrics::Snapshot& snapshot) {
          const std::lock_guard lock(wal_mutex);
          wal.append(snapshot);
          return true;
        },
        0);
    ASSERT_TRUE(listener.start());

    // First sender: frames 0..kFrames/2. Ack-gated exit means its
    // frames are durable in our WAL before waitpid returns.
    run_sender_process(listener.port(), 0, kFrames / 2);
    EXPECT_EQ(listener.expected(), kFrames / 2);

    // Second sender process — a brand-new link must resume from the
    // hello horizon, not from zero, so numbering continues seamlessly.
    run_sender_process(listener.port(), kFrames / 2, kFrames / 2);
    wait_for([&] { return listener.expected() == kFrames; });
    EXPECT_EQ(listener.connections(), 2u);
    EXPECT_EQ(listener.protocol_errors(), 0u);
    listener.stop();
    wal.sync();
  }

  // The log must hold exactly the send order: seq i carries snapshot i.
  std::vector<persist::WalRecord> records;
  const persist::WalScan scan = persist::replay_wal(
      dir + "/wal", 0,
      [&](const persist::WalRecord& r) { records.push_back(r); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(records.size(), kFrames);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].snapshot.time, grid_snapshot(i).time);
    EXPECT_EQ(records[i].snapshot.node_ip, grid_snapshot(i).node_ip);
  }
  std::filesystem::remove_all(dir);
}

/// Raw blocking client for protocol-edge tests: speaks the wire format
/// directly so it can violate the contract on purpose.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool read_exact(std::uint8_t* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  bool write_all(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t r =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (r <= 0) return false;
      sent += static_cast<std::size_t>(r);
    }
    return true;
  }

  std::optional<Hello> read_hello() {
    std::uint8_t raw[kHelloBytes];
    Hello hello;
    if (!read_exact(raw, kHelloBytes) ||
        decode_hello({raw, kHelloBytes}, hello) != DecodeStatus::kOk)
      return std::nullopt;
    return hello;
  }

  std::optional<std::uint64_t> read_ack() {
    std::uint8_t raw[kAckBytes];
    std::uint64_t seq = 0;
    if (!read_exact(raw, kAckBytes) ||
        decode_ack({raw, kAckBytes}, seq) != DecodeStatus::kOk)
      return std::nullopt;
    return seq;
  }

  /// True when the peer closed the connection (EOF within the timeout).
  bool closed_by_peer() {
    std::uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(DistIngest, DuplicateFramesAreReackedNotReingested) {
  std::vector<metrics::Snapshot> ingested;
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [&](const metrics::Snapshot& snapshot) {
        ingested.push_back(snapshot);
        return true;
      },
      0);
  ASSERT_TRUE(listener.start());

  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto hello = client.read_hello();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->wal_next, 0u);

  ASSERT_TRUE(client.write_all(encode_frame(grid_snapshot(0), 0, {})));
  EXPECT_EQ(client.read_ack(), std::optional<std::uint64_t>(0));
  // Retransmit of seq 0 (as after a lost ack): re-acked, not re-ingested.
  ASSERT_TRUE(client.write_all(encode_frame(grid_snapshot(0), 0, {})));
  EXPECT_EQ(client.read_ack(), std::optional<std::uint64_t>(0));
  ASSERT_TRUE(client.write_all(encode_frame(grid_snapshot(1), 1, {})));
  EXPECT_EQ(client.read_ack(), std::optional<std::uint64_t>(1));

  listener.stop();
  EXPECT_EQ(ingested.size(), 2u);
  EXPECT_EQ(listener.duplicates(), 1u);
  EXPECT_EQ(listener.expected(), 2u);
}

TEST(DistIngest, SequenceGapClosesTheConnection) {
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [](const metrics::Snapshot&) { return true; }, 0);
  ASSERT_TRUE(listener.start());

  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.read_hello().has_value());
  // seq 3 while the listener expects 0: unackable, must disconnect.
  ASSERT_TRUE(client.write_all(encode_frame(grid_snapshot(3), 3, {})));
  EXPECT_TRUE(client.closed_by_peer());
  listener.stop();
  EXPECT_EQ(listener.protocol_errors(), 1u);
  EXPECT_EQ(listener.expected(), 0u);
}

TEST(DistIngest, OffGridFrameClosesTheConnection) {
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [](const metrics::Snapshot&) { return true; }, 0);
  ASSERT_TRUE(listener.start());

  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.read_hello().has_value());
  metrics::Snapshot off_grid = grid_snapshot(0);
  off_grid.time = 7;  // violates the coordinator's grid-filter contract
  ASSERT_TRUE(client.write_all(encode_frame(off_grid, 0, {})));
  EXPECT_TRUE(client.closed_by_peer());
  listener.stop();
  EXPECT_EQ(listener.protocol_errors(), 1u);
  EXPECT_EQ(listener.expected(), 0u);
}

TEST(DistIngest, RejectedSinkClosesUnackedForResend) {
  // A backlog-full sink (push returned false) must close the connection
  // without acking or advancing, so the coordinator resends.
  std::size_t calls = 0;
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [&](const metrics::Snapshot&) {
        ++calls;
        return false;
      },
      0);
  ASSERT_TRUE(listener.start());

  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.read_hello().has_value());
  ASSERT_TRUE(client.write_all(encode_frame(grid_snapshot(0), 0, {})));
  EXPECT_TRUE(client.closed_by_peer());
  listener.stop();
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(listener.expected(), 0u);
}

TEST(DistIngest, HelloAdvertisesTheRecoveredHorizon) {
  // A listener started at a recovered WAL horizon tells the coordinator
  // to resume from there.
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [](const metrics::Snapshot&) { return true; }, 17);
  ASSERT_TRUE(listener.start());
  RawClient client(listener.port());
  ASSERT_TRUE(client.connected());
  const auto hello = client.read_hello();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->wal_next, 17u);
  listener.stop();
}

TEST(DistIngest, ListenerExportsItsSeriesBeforeAnyConnection) {
  // A worker whose shard has no nodes yet still exports its ingest
  // counters, at zero, for the coordinator's federation to sum.
  IngestListener listener(
      {.port = 0, .sampling_interval_s = 5},
      [](const metrics::Snapshot&) { return true; }, 0);
  ASSERT_TRUE(listener.start());
  const obs::RegistrySnapshot registry =
      obs::MetricsRegistry::global().snapshot();
  EXPECT_NE(registry.find_counter("appclass_dist_frames_total"), nullptr);
  listener.stop();
}

/// Worker-side sink for the link tests: records which grid_snapshot
/// index each ingest carried, in ingest order. `before_ingest` runs
/// first on every frame and may block (a held or stalled sink).
struct RecordingSink {
  std::mutex mutex;
  std::vector<std::uint64_t> ingested;
  std::function<void(std::uint64_t)> before_ingest;

  IngestListener::Sink sink() {
    return [this](const metrics::Snapshot& snapshot) {
      const auto index = static_cast<std::uint64_t>(snapshot.time / 5 - 1);
      if (before_ingest) before_ingest(index);
      const std::lock_guard lock(mutex);
      ingested.push_back(index);
      return true;
    };
  }

  /// on_durable hook: the n-th notice must come after the worker has
  /// ingested frame n (ack => durable, notices in seq order).
  std::function<void(double)> notice_counter(std::uint64_t& notices) {
    return [this, &notices](double) {
      const std::lock_guard lock(mutex);
      EXPECT_LT(notices, ingested.size());
      ++notices;
    };
  }

  std::vector<std::uint64_t> frames() {
    const std::lock_guard lock(mutex);
    return ingested;
  }
};

std::vector<std::uint64_t> iota_frames(std::uint64_t n) {
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(DistIngest, AckRetiresWithoutAnotherSend) {
  // The link's reader retires an ack when it arrives: neither another
  // send() nor a flush() is needed for the frame to count as durable.
  RecordingSink worker;
  IngestListener listener({.port = 0, .sampling_interval_s = 5},
                          worker.sink(), 0);
  ASSERT_TRUE(listener.start());
  std::uint64_t notices = 0;
  WorkerLinkOptions options;
  options.on_durable = worker.notice_counter(notices);
  WorkerLink link("127.0.0.1", listener.port(), options);
  ASSERT_TRUE(link.send(grid_snapshot(0), {}));
  wait_for([&] { return link.acked() == 1; });
  EXPECT_EQ(link.in_flight(), 0u);
  {
    const std::lock_guard lock(worker.mutex);
    EXPECT_EQ(notices, 1u);
  }
  listener.stop();
}

TEST(DistIngest, ListenerRestartMidWindowResumesExactlyOnce) {
  // The listener stops with frames in flight (one held inside its sink)
  // and comes back on the same port at its expected() horizon: the link
  // reconnects once, retires what became durable, resends the rest.
  constexpr std::uint64_t kFrames = 16;
  constexpr std::uint64_t kHeld = 6;
  RecordingSink worker;
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  worker.before_ingest = [&](std::uint64_t index) {
    if (index != kHeld || release.load()) return;
    holding.store(true);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  IngestListener first({.port = 0, .sampling_interval_s = 5}, worker.sink(),
                       0);
  ASSERT_TRUE(first.start());

  std::uint64_t notices = 0;
  WorkerLinkOptions options;
  options.backoff_initial_ms = 20;
  options.on_durable = worker.notice_counter(notices);
  WorkerLink link("127.0.0.1", first.port(), options);
  for (std::uint64_t i = 0; i < kFrames; ++i)
    ASSERT_TRUE(link.send(grid_snapshot(i), {}));
  wait_for([&] { return holding.load(); });
  EXPECT_GT(link.in_flight(), 0u);

  // stop() kicks the connection, then joins the listener thread, which
  // is still inside the held sink until the frame is released.
  std::thread stopper([&] { first.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  stopper.join();

  IngestListener second({.port = first.port(), .sampling_interval_s = 5},
                        worker.sink(), first.expected());
  ASSERT_TRUE(second.start());
  ASSERT_TRUE(link.flush());
  second.stop();

  EXPECT_EQ(worker.frames(), iota_frames(kFrames));
  EXPECT_EQ(link.sent(), kFrames);
  EXPECT_EQ(link.acked(), link.sent());
  EXPECT_EQ(link.reconnects(), 1u);
  EXPECT_EQ(link.in_flight(), 0u);
  const std::lock_guard lock(worker.mutex);
  EXPECT_EQ(notices, kFrames);
}

TEST(DistIngest, StalledSinkTearsDownAndResumesExactlyOnce) {
  // A sink stalled past the link's io timeout: the link tears the
  // connection down and reconnects. The listener serves one connection
  // at a time, so the new hello already counts the stalled frame; every
  // frame must reach the sink once, any retransmit only re-acked.
  constexpr std::uint64_t kFrames = 8;
  constexpr std::uint64_t kStalled = 2;
  RecordingSink worker;
  std::atomic<bool> stalled{false};
  worker.before_ingest = [&](std::uint64_t index) {
    if (index == kStalled && !stalled.exchange(true))
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  IngestListener listener({.port = 0, .sampling_interval_s = 5},
                          worker.sink(), 0);
  ASSERT_TRUE(listener.start());

  std::uint64_t notices = 0;
  WorkerLinkOptions options;
  options.io_timeout_ms = 200;
  options.backoff_initial_ms = 20;
  options.on_durable = worker.notice_counter(notices);
  WorkerLink link("127.0.0.1", listener.port(), options);
  for (std::uint64_t i = 0; i < kFrames; ++i)
    ASSERT_TRUE(link.send(grid_snapshot(i), {}));
  ASSERT_TRUE(link.flush());
  listener.stop();

  EXPECT_GE(link.reconnects(), 1u);
  EXPECT_EQ(worker.frames(), iota_frames(kFrames));
  EXPECT_EQ(listener.expected(), kFrames);
  EXPECT_EQ(listener.protocol_errors(), 0u);
  EXPECT_EQ(link.acked(), link.sent());
  EXPECT_EQ(link.in_flight(), 0u);
  const std::lock_guard lock(worker.mutex);
  EXPECT_EQ(notices, kFrames);
}

TEST(DistIngest, OnDurableExceptionReachesTheSender) {
  // on_durable runs on the link's reader thread; what it throws is
  // rethrown from the sending thread's next wait.
  RecordingSink worker;
  IngestListener listener({.port = 0, .sampling_interval_s = 5},
                          worker.sink(), 0);
  ASSERT_TRUE(listener.start());
  WorkerLinkOptions options;
  options.on_durable = [](double) {
    throw std::runtime_error("on_durable failed");
  };
  WorkerLink link("127.0.0.1", listener.port(), options);
  ASSERT_TRUE(link.send(grid_snapshot(0), {}));
  EXPECT_THROW(link.flush(), std::runtime_error);
  listener.stop();
}

TEST(DistIngest, DeliveredStreamIdenticalWithTracingOnAndOff) {
  // Tracing is observational: a worker ingests the same bytes whether the
  // sender traced its announces or not, and each pass feeds both
  // announce->durable and announce->ingested histograms once per frame.
  constexpr std::uint64_t kFrames = 64;
  const auto e2e_counts = [] {
    const obs::RegistrySnapshot registry =
        obs::MetricsRegistry::global().snapshot();
    const auto* durable =
        registry.find_histogram("appclass_e2e_durable_ack_seconds");
    const auto* ingested =
        registry.find_histogram("appclass_e2e_ingest_seconds");
    return std::pair<std::uint64_t, std::uint64_t>{
        durable ? durable->count : 0, ingested ? ingested->count : 0};
  };
  const auto delivered = [&](bool traced) {
    std::mutex mutex;
    std::vector<std::vector<std::uint8_t>> packets;
    const auto sink = [&](const metrics::Snapshot& snapshot) {
      const std::lock_guard lock(mutex);
      packets.push_back(monitor::encode_packet(snapshot));
      return true;
    };
    IngestListener listener({.port = 0, .sampling_interval_s = 5}, sink, 0);
    EXPECT_TRUE(listener.start());
    const auto before = e2e_counts();
    obs::set_tracing_enabled(traced);
    {
      WorkerLink link("127.0.0.1", listener.port());
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        obs::TraceSpan span("dist_announce");
        EXPECT_TRUE(link.send(grid_snapshot(i), span.context()));
      }
      EXPECT_TRUE(link.flush());
    }
    obs::set_tracing_enabled(false);
    listener.stop();
    const auto after = e2e_counts();
    EXPECT_GE(after.first - before.first, kFrames);
    EXPECT_GE(after.second - before.second, kFrames);
    return packets;
  };
  const auto untraced = delivered(false);
  EXPECT_EQ(untraced.size(), kFrames);
  EXPECT_EQ(delivered(true), untraced);
}

}  // namespace
}  // namespace appclass::dist
