#include "persist/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/assert.hpp"
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

std::uint64_t fnv1a64(const unsigned char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

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
  const std::uint64_t checksum = fnv1a64(
      reinterpret_cast<const unsigned char*>(buffer_.data()) + body_start,
      buffer_.size() - body_start);
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
  std::uint64_t last_delivered = 0;
  bool any_delivered = false;
  for (const std::string& path : wal_segments(dir)) {
    ++scan.segments;
    std::string data;
    try {
      data = common::read_file_or_throw(path);
    } catch (const std::runtime_error&) {
      scan.truncated_tail = true;
      continue;
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t pos = 0;
    if (data.size() < kSegmentHeader.size() ||
        std::string_view(data.data(), kSegmentHeader.size()) !=
            kSegmentHeader) {
      scan.truncated_tail = true;
      APPCLASS_LOG_WARN("wal.bad_segment_header", {"segment", path});
      continue;
    }
    pos = kSegmentHeader.size();
    // Records until EOF or the first torn/corrupt one. A tear terminates
    // this segment only: later segments were written by a post-recovery
    // process that had already accepted the loss.
    while (pos < data.size()) {
      if (data.size() - pos < 4 + 8 + 4 ||
          read_u64(bytes + pos, 4) != kRecordMagic) {
        scan.truncated_tail = true;
        break;
      }
      const std::uint64_t seq = read_u64(bytes + pos + 4, 8);
      const std::size_t len =
          static_cast<std::size_t>(read_u64(bytes + pos + 12, 4));
      if (data.size() - pos < 4 + 8 + 4 + len + 8) {
        scan.truncated_tail = true;
        break;
      }
      const std::uint64_t recorded = read_u64(bytes + pos + 16 + len, 8);
      if (fnv1a64(bytes + pos + 4, 12 + len) != recorded) {
        scan.truncated_tail = true;
        break;
      }
      const auto snapshot = monitor::decode_packet(
          std::span<const std::uint8_t>(bytes + pos + 16, len));
      pos += 4 + 8 + 4 + len + 8;
      if (!snapshot) {
        scan.truncated_tail = true;
        break;
      }
      if (seq >= from_seq && (!any_delivered || seq > last_delivered)) {
        fn(WalRecord{seq, *snapshot});
        ++scan.records;
        last_delivered = seq;
        any_delivered = true;
        scan.last_seq = seq;
      }
    }
  }
  return scan;
}

}  // namespace appclass::persist
