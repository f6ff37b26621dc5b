// Write-ahead log of ingested snapshots.
//
// The serving path appends every accepted grid-aligned snapshot here
// *before* it is classified and folded into OnlineClassifier state, so a
// crash between ingest and the next checkpoint loses nothing durable:
// recovery replays the tail of the log through the identical
// classify+ingest arithmetic and lands on bit-identical state.
//
// On-disk layout (one directory, segment files `wal-<16-hex first
// seq>.seg`, named by common::SeqFileName):
//
//   "appclass-wal v1\n"                      segment header (text)
//   repeated records, each big-endian binary (common/codec.hpp):
//     u32  magic 'WALR'
//     u64  sequence number (monotonic across segments)
//     u32  payload length
//     ...  payload = monitor::encode_packet(snapshot)
//     u64  FNV-1a-64 over seq|len|payload   (the model-file footer
//                                            idiom, applied per record)
//
// A reader stops at the first invalid record: a torn final record is the
// normal artifact of SIGKILL mid-append and is reported, not fatal.
// Replay reads each segment through one buffer of kWalReadChunkBytes, so
// its memory is bounded by that chunk, not by the segment size. One pass
// over each record checks the record checksum and the packet's own
// checksum together; only records that are delivered are decoded.
// Segments rotate at a size threshold so checkpointing can prune whole
// files below the checkpoint horizon.
//
// Durability is policy-selectable (`FsyncPolicy`): kAlways syncs every
// record (zero loss under SIGKILL *and* power cut), kInterval syncs every
// `sync_every` records (loss bounded by the interval), kNever leaves
// flushing to the page cache / buffer threshold. bench/recovery_curve
// quantifies the loss/throughput trade.
//
// Each writer times its appends (appclass_persist_wal_append_seconds)
// and every fsync it issues (appclass_persist_wal_fsync_seconds); under
// kAlways the fsync is most of a durable ack. Replay records nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "metrics/snapshot.hpp"
#include "obs/metrics.hpp"

namespace appclass::persist {

enum class FsyncPolicy {
  kAlways,    ///< write + fsync after every append
  kInterval,  ///< write + fsync every `sync_every` appends
  kNever,     ///< write when the user-space buffer fills; never fsync
};

std::string_view to_string(FsyncPolicy policy) noexcept;
std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view name) noexcept;

/// Size of the one read buffer replay_wal scans every segment through.
inline constexpr std::size_t kWalReadChunkBytes = 256 * 1024;

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Records between syncs under kInterval.
  std::size_t sync_every = 64;
  /// Rotate to a new segment once the current one exceeds this many bytes.
  std::size_t max_segment_bytes = 4u << 20;
};

class WalWriter {
 public:
  /// Opens (creates) `dir` for appending. `next_seq` is the sequence
  /// number of the first record this writer will append — recovery passes
  /// last replayed seq + 1 so numbering stays monotonic across restarts.
  WalWriter(std::string dir, WalOptions options = {},
            std::uint64_t next_seq = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one snapshot and returns its sequence number. Applies the
  /// fsync policy; throws std::runtime_error with errno context on I/O
  /// failure.
  std::uint64_t append(const metrics::Snapshot& snapshot);

  /// Forces buffered records to the OS and to stable storage regardless
  /// of policy (graceful shutdown, pre-checkpoint barrier).
  void sync();

  /// Deletes whole segments whose every record is <= `seq` (covered by a
  /// durable checkpoint). The active segment is never deleted. Returns
  /// the number of segments removed.
  std::size_t prune_through(std::uint64_t seq);

  /// Sequence number the next append will receive.
  std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Records appended through this writer (not counting prior segments).
  std::uint64_t appended() const noexcept { return appended_; }

  /// Test hook simulating SIGKILL: drops the user-space buffer without
  /// flushing and closes the fd. Any further append throws.
  void simulate_crash();

 private:
  void open_segment();
  void flush_buffer();
  void fsync_segment();

  std::string dir_;
  WalOptions options_;
  obs::Histogram& append_seconds_;
  obs::Histogram& fsync_seconds_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t segment_first_seq_ = 0;
  int fd_ = -1;
  std::string segment_path_;
  std::size_t segment_bytes_ = 0;
  std::string buffer_;
  std::size_t unsynced_records_ = 0;
  bool crashed_ = false;
};

/// One decoded record.
struct WalRecord {
  std::uint64_t seq = 0;
  metrics::Snapshot snapshot;
};

/// Result of scanning a WAL directory.
struct WalScan {
  std::uint64_t records = 0;      ///< valid records delivered
  std::uint64_t last_seq = 0;     ///< seq of the last valid record
  bool truncated_tail = false;    ///< stopped at a torn/corrupt record
  std::size_t segments = 0;       ///< segment files visited
};

/// Replays every valid record with seq >= `from_seq`, in sequence order,
/// through `fn`. A torn/corrupt record terminates its segment (flagged as
/// truncated_tail) — everything after a torn write within one segment is
/// untrusted, while later segments were written by a post-recovery
/// process and stay valid. Records below `from_seq` are checked the same
/// way, so a corrupt one also ends its segment. A segment that cannot be
/// opened or read ends where the read failed, like a tear. A missing
/// directory yields an empty scan.
///
/// `fn` receives one reused WalRecord, overwritten by the next record: it
/// is valid only during the call, so copy what must outlive it. Memory is
/// bounded by kWalReadChunkBytes whatever the segment size.
WalScan replay_wal(const std::string& dir, std::uint64_t from_seq,
                   const std::function<void(const WalRecord&)>& fn);

/// Paths of the WAL segments in `dir`, in ascending segment order.
std::vector<std::string> wal_segments(const std::string& dir);

}  // namespace appclass::persist
