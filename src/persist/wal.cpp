#include "persist/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/fnv1a.hpp"
#include "common/fs.hpp"
#include "monitor/wire.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace appclass::persist {
namespace {

constexpr std::string_view kSegmentHeader = "appclass-wal v1\n";
constexpr std::uint32_t kRecordMagic = 0x57414C52;  // "WALR"
constexpr std::string_view kSegmentPrefix = "wal-";
constexpr std::string_view kSegmentSuffix = ".seg";
/// kNever flushes to the OS at this buffer size (memory bound, no fsync).
constexpr std::size_t kNeverPolicyFlushBytes = 256 * 1024;
/// magic + seq + payload length, then the payload, then the checksum.
constexpr std::size_t kRecordHeaderBytes = 4 + 8 + 4;
constexpr std::size_t kRecordFooterBytes = 8;
/// A payload is one monitor packet, so a longer length is corruption.
constexpr std::size_t kMaxPayloadBytes =
    monitor::packet_size(monitor::kMaxNodeIpLength);
static_assert(kRecordHeaderBytes + kMaxPayloadBytes + kRecordFooterBytes <=
              kWalReadChunkBytes);

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

std::uint64_t read_u64(const unsigned char* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];
  return v;
}

std::string segment_name(std::uint64_t first_seq) {
  char name[64];
  std::snprintf(name, sizeof name, "%.*s%016llx%.*s",
                static_cast<int>(kSegmentPrefix.size()), kSegmentPrefix.data(),
                static_cast<unsigned long long>(first_seq),
                static_cast<int>(kSegmentSuffix.size()), kSegmentSuffix.data());
  return name;
}

/// First record seq encoded in a segment file name; nullopt if the name
/// is not a WAL segment.
std::optional<std::uint64_t> segment_first_seq(std::string_view name) {
  if (name.size() != kSegmentPrefix.size() + 16 + kSegmentSuffix.size())
    return std::nullopt;
  if (name.substr(0, kSegmentPrefix.size()) != kSegmentPrefix) return std::nullopt;
  if (name.substr(name.size() - kSegmentSuffix.size()) != kSegmentSuffix)
    return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : name.substr(kSegmentPrefix.size(), 16)) {
    if (c >= '0' && c <= '9') seq = (seq << 4) | static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      seq = (seq << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
  }
  return seq;
}

/// Sequential reader over one segment file through a caller-owned buffer
/// of kWalReadChunkBytes: a record cut by a chunk boundary is moved to the
/// buffer's front and completed by the next read(2).
class SegmentReader {
 public:
  SegmentReader(const std::string& path, std::uint8_t* buffer)
      : fd_(::open(path.c_str(), O_RDONLY)), buffer_(buffer) {
    failed_ = done_ = fd_ < 0;
  }
  ~SegmentReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// Makes at least `n` (<= kWalReadChunkBytes) unread bytes available at
  /// data(); false when the file ends or a read fails first.
  bool fill(std::size_t n) {
    while (end_ - begin_ < n) {
      if (done_) return false;
      if (begin_ > 0) {
        std::memmove(buffer_, buffer_ + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      const ssize_t got =
          ::read(fd_, buffer_ + end_, kWalReadChunkBytes - end_);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        done_ = true;
        failed_ = got < 0;
        return false;
      }
      end_ += static_cast<std::size_t>(got);
    }
    return true;
  }

  const std::uint8_t* data() const noexcept { return buffer_ + begin_; }
  std::size_t available() const noexcept { return end_ - begin_; }
  void consume(std::size_t n) noexcept { begin_ += n; }
  bool failed() const noexcept { return failed_; }

 private:
  int fd_;
  std::uint8_t* buffer_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool done_ = false;
  bool failed_ = false;
};

}  // namespace

std::string_view to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kNever: return "never";
  }
  return "always";
}

std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view name) noexcept {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

WalWriter::WalWriter(std::string dir, WalOptions options,
                     std::uint64_t next_seq)
    : dir_(std::move(dir)),
      options_(options),
      append_seconds_(obs::MetricsRegistry::global().histogram(
          "appclass_persist_wal_append_seconds")),
      fsync_seconds_(obs::MetricsRegistry::global().histogram(
          "appclass_persist_wal_fsync_seconds")),
      next_seq_(next_seq) {
  APPCLASS_EXPECTS(options_.sync_every >= 1);
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
    common::throw_errno("cannot create WAL directory:", dir_);
  open_segment();
}

WalWriter::~WalWriter() {
  if (fd_ < 0) return;
  try {
    sync();
  } catch (...) {
    // Destructor must not throw; the data at risk is bounded by policy.
  }
  ::close(fd_);
}

void WalWriter::open_segment() {
  segment_path_ = dir_ + "/" + segment_name(next_seq_);
  // A leftover segment with this exact first-seq can only hold records a
  // prior recovery already declared lost (torn tail / nothing replayable)
  // — replace it rather than appending after garbage.
  ::unlink(segment_path_.c_str());
  fd_ = ::open(segment_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) common::throw_errno("cannot open WAL segment:", segment_path_);
  segment_first_seq_ = next_seq_;
  buffer_.assign(kSegmentHeader);
  segment_bytes_ = kSegmentHeader.size();
  unsynced_records_ = 0;
}

void WalWriter::flush_buffer() {
  if (buffer_.empty()) return;
  if (!common::write_all(fd_, buffer_.data(), buffer_.size()))
    common::throw_errno("WAL write failed:", segment_path_);
  buffer_.clear();
}

void WalWriter::fsync_segment() {
  const obs::TraceSpan span("wal_fsync", &fsync_seconds_);
  if (::fsync(fd_) != 0)
    common::throw_errno("WAL fsync failed:", segment_path_);
}

std::uint64_t WalWriter::append(const metrics::Snapshot& snapshot) {
  if (crashed_ || fd_ < 0)
    throw std::runtime_error("WAL writer is closed: " + segment_path_);
  const obs::TraceSpan span("wal_append", &append_seconds_);

  const std::vector<std::uint8_t> payload = monitor::encode_packet(snapshot);
  const std::size_t record_size = 4 + 8 + 4 + payload.size() + 8;
  if (segment_bytes_ + record_size > options_.max_segment_bytes &&
      segment_bytes_ > kSegmentHeader.size()) {
    // Rotate: the outgoing segment is flushed AND fsynced, so only the
    // active segment can ever lose records to a crash.
    flush_buffer();
    fsync_segment();
    ::close(fd_);
    open_segment();
  }

  const std::uint64_t seq = next_seq_++;
  const std::size_t body_start = buffer_.size() + 4;  // after the magic
  put_u32(buffer_, kRecordMagic);
  put_u64(buffer_, seq);
  put_u32(buffer_, static_cast<std::uint32_t>(payload.size()));
  buffer_.append(reinterpret_cast<const char*>(payload.data()),
                 payload.size());
  const std::uint64_t checksum =
      common::fnv1a64(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(buffer_.data()) + body_start,
          buffer_.size() - body_start));
  put_u64(buffer_, checksum);
  segment_bytes_ += record_size;
  ++appended_;
  ++unsynced_records_;

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      sync();
      break;
    case FsyncPolicy::kInterval:
      if (unsynced_records_ >= options_.sync_every) sync();
      break;
    case FsyncPolicy::kNever:
      if (buffer_.size() >= kNeverPolicyFlushBytes) flush_buffer();
      break;
  }
  return seq;
}

void WalWriter::sync() {
  if (crashed_ || fd_ < 0) return;
  flush_buffer();
  fsync_segment();
  unsynced_records_ = 0;
}

std::size_t WalWriter::prune_through(std::uint64_t seq) {
  const std::vector<std::string> segments = wal_segments(dir_);
  std::size_t removed = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::size_t slash = segments[i].find_last_of('/');
    const auto first = segment_first_seq(segments[i].substr(slash + 1));
    const std::size_t next_slash = segments[i + 1].find_last_of('/');
    const auto next_first =
        segment_first_seq(segments[i + 1].substr(next_slash + 1));
    if (!first || !next_first) continue;
    if (segments[i] == segment_path_) break;  // never the active segment
    // Records of segment i are < next segment's first seq.
    if (*next_first == 0 || *next_first - 1 > seq) break;
    if (::unlink(segments[i].c_str()) == 0) {
      ++removed;
      APPCLASS_LOG_DEBUG("wal.pruned", {"segment", segments[i]},
                         {"through_seq", seq});
    }
  }
  return removed;
}

void WalWriter::simulate_crash() {
  // SIGKILL semantics: whatever reached write(2) survives in the page
  // cache; the user-space buffer vanishes.
  buffer_.clear();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  crashed_ = true;
}

std::vector<std::string> wal_segments(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    if (segment_first_seq(entry->d_name))
      out.push_back(dir + "/" + entry->d_name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

WalScan replay_wal(const std::string& dir, std::uint64_t from_seq,
                   const std::function<void(const WalRecord&)>& fn) {
  WalScan scan;
  bool any_delivered = false;
  const auto buffer =
      std::make_unique_for_overwrite<std::uint8_t[]>(kWalReadChunkBytes);
  WalRecord record;
  for (const std::string& path : wal_segments(dir)) {
    ++scan.segments;
    SegmentReader reader(path, buffer.get());
    if (!reader.fill(kSegmentHeader.size()) ||
        std::memcmp(reader.data(), kSegmentHeader.data(),
                    kSegmentHeader.size()) != 0) {
      scan.truncated_tail = true;
      if (!reader.failed())
        APPCLASS_LOG_WARN("wal.bad_segment_header", {"segment", path});
      continue;
    }
    reader.consume(kSegmentHeader.size());
    // Records until EOF or the first torn/corrupt one. A tear terminates
    // this segment only: later segments were written by a post-recovery
    // process that had already accepted the loss.
    for (;;) {
      if (!reader.fill(kRecordHeaderBytes)) {
        if (reader.available() > 0 || reader.failed())
          scan.truncated_tail = true;
        break;
      }
      if (read_u64(reader.data(), 4) != kRecordMagic) {
        scan.truncated_tail = true;
        break;
      }
      const std::uint64_t seq = read_u64(reader.data() + 4, 8);
      const auto len =
          static_cast<std::size_t>(read_u64(reader.data() + 12, 4));
      const std::size_t size = kRecordHeaderBytes + len + kRecordFooterBytes;
      if (len > kMaxPayloadBytes || !reader.fill(size)) {
        scan.truncated_tail = true;
        break;
      }
      // One pass over seq|len|payload yields the record checksum and the
      // packet's body hash; every check runs on every record, but only a
      // delivered record is decoded.
      const std::uint8_t* bytes = reader.data();
      const common::Fnv1aLanes hashes =
          monitor::hash_envelope({bytes + 4, 12 + len}, 12);
      const bool deliver =
          seq >= from_seq && (!any_delivered || seq > scan.last_seq);
      if (hashes.h64 != read_u64(bytes + kRecordHeaderBytes + len, 8) ||
          !monitor::check_packet({bytes + kRecordHeaderBytes, len},
                                 hashes.h32,
                                 deliver ? &record.snapshot : nullptr)) {
        scan.truncated_tail = true;
        break;
      }
      reader.consume(size);
      if (deliver) {
        record.seq = seq;
        fn(record);
        ++scan.records;
        any_delivered = true;
        scan.last_seq = seq;
      }
    }
  }
  return scan;
}

}  // namespace appclass::persist
