// Write-ahead log: append/replay round trip, segment rotation, torn-tail
// semantics, pruning, and the crash-loss bounds of each fsync policy
// (simulate_crash models SIGKILL: written bytes survive in the page
// cache, the user-space buffer vanishes).
#include "persist/wal.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "core_test_util.hpp"
#include "monitor/wire.hpp"
#include "obs/metrics.hpp"

namespace appclass::persist {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/appclass_wal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Deterministic snapshot stream (same seed => same bytes).
  static std::vector<metrics::Snapshot> stream(std::size_t n) {
    linalg::Rng rng(7);
    std::vector<metrics::Snapshot> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto s = core::testing::synthetic_snapshot(
          core::class_from_index(i % core::kClassCount), rng,
          static_cast<metrics::SimTime>(i));
      s.node_ip = i % 2 == 0 ? "10.0.0.1" : "10.0.0.2";
      out.push_back(std::move(s));
    }
    return out;
  }

  std::string dir_;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t be(const std::vector<std::uint8_t>& bytes, std::size_t at,
                 std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v = (v << 8) | bytes[at + i];
  return v;
}

/// Byte offset of every record in a segment (after the 16-byte header).
std::vector<std::size_t> record_offsets(const std::vector<std::uint8_t>& seg) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 16; pos + 16 <= seg.size();
       pos += 16 + static_cast<std::size_t>(be(seg, pos + 12, 4)) + 8)
    out.push_back(pos);
  return out;
}

/// Flips one byte inside the packet body of the record at `offset` and,
/// when `reseal`, rewrites the record's FNV-1a-64 to match, so only the
/// packet's own checksum still tells.
void corrupt_packet(std::vector<std::uint8_t>& seg, std::size_t offset,
                    bool reseal) {
  const auto len = static_cast<std::size_t>(be(seg, offset + 12, 4));
  seg[offset + 16 + monitor::kPacketBodyOffset + 30] ^= 0x5a;
  if (!reseal) return;
  const std::uint64_t sum = common::fnv1a64(
      std::span<const std::uint8_t>(seg).subspan(offset + 4, 12 + len));
  for (std::size_t i = 0; i < 8; ++i)
    seg[offset + 16 + len + i] = static_cast<std::uint8_t>(sum >> (56 - 8 * i));
}

TEST_F(WalTest, AppendReplayRoundTrip) {
  const auto snapshots = stream(12);
  {
    WalWriter wal(dir_);
    for (const auto& s : snapshots) wal.append(s);
    EXPECT_EQ(wal.next_seq(), 12u);
    EXPECT_EQ(wal.appended(), 12u);
  }
  std::vector<WalRecord> records;
  const WalScan scan = replay_wal(
      dir_, 0, [&](const WalRecord& r) { records.push_back(r); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(scan.records, 12u);
  EXPECT_EQ(scan.last_seq, 11u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    // Wire-level bit identity: the replayed snapshot re-encodes to the
    // exact bytes the original produced.
    EXPECT_EQ(monitor::encode_packet(records[i].snapshot),
              monitor::encode_packet(snapshots[i]));
  }
}

TEST_F(WalTest, ReplayFromSeqSkipsPrefix) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(10)) wal.append(s);
  }
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 6, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST_F(WalTest, RotationSplitsSegmentsAndReplaysInOrder) {
  {
    WalWriter wal(dir_, {.max_segment_bytes = 512});
    for (const auto& s : stream(24)) wal.append(s);
  }
  EXPECT_GE(wal_segments(dir_).size(), 3u);
  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_FALSE(scan.truncated_tail);
  ASSERT_EQ(seqs.size(), 24u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST_F(WalTest, TornTailIsReportedNotFatal) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(6)) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  // Chop a few bytes off the final record: the artifact of a crash
  // mid-append.
  const auto size = std::filesystem::file_size(segments[0]);
  std::filesystem::resize_file(segments[0], size - 5);

  std::uint64_t delivered = 0;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(scan.last_seq, 4u);
}

TEST_F(WalTest, TornRecordTerminatesOnlyItsSegment) {
  // Two segments; tear the FIRST one's tail. The second segment (written
  // by a "post-recovery process") must still replay.
  {
    WalWriter wal(dir_, {.max_segment_bytes = 400});
    for (const auto& s : stream(12)) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_GE(segments.size(), 2u);
  const auto size = std::filesystem::file_size(segments[0]);
  std::filesystem::resize_file(segments[0], size - 3);

  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_TRUE(scan.truncated_tail);
  ASSERT_FALSE(seqs.empty());
  // Records from the later segment survived the earlier segment's tear.
  EXPECT_EQ(seqs.back(), 11u);
}

TEST_F(WalTest, AlwaysPolicySurvivesSigkillWithZeroLoss) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kAlways});
  for (const auto& s : stream(9)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_EQ(delivered, 9u);
}

TEST_F(WalTest, AlwaysPolicyTimesEveryAppendAndFsync) {
  auto& registry = obs::MetricsRegistry::global();
  const obs::Histogram& appends =
      registry.histogram("appclass_persist_wal_append_seconds");
  const obs::Histogram& fsyncs =
      registry.histogram("appclass_persist_wal_fsync_seconds");
  const std::uint64_t appends_before = appends.count();
  const std::uint64_t fsyncs_before = fsyncs.count();
  constexpr std::uint64_t kAppends = 7;
  {
    WalWriter wal(dir_, {.fsync = FsyncPolicy::kAlways});
    for (const auto& s : stream(kAppends)) wal.append(s);
    EXPECT_EQ(appends.count() - appends_before, kAppends);
    EXPECT_GE(fsyncs.count() - fsyncs_before, kAppends);
  }
  // Replay is not instrumented.
  const std::uint64_t appends_after = appends.count();
  const std::uint64_t fsyncs_after = fsyncs.count();
  replay_wal(dir_, 0, [](const WalRecord&) {});
  EXPECT_EQ(appends.count(), appends_after);
  EXPECT_EQ(fsyncs.count(), fsyncs_after);
}

TEST_F(WalTest, IntervalPolicyBoundsLossToSyncInterval) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kInterval, .sync_every = 4});
  for (const auto& s : stream(10)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  // Synced after records 4 and 8; 9 and 10 were in the lost buffer.
  EXPECT_EQ(delivered, 8u);
}

TEST_F(WalTest, NeverPolicyCanLoseEverythingBuffered) {
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kNever});
  for (const auto& s : stream(10)) wal.append(s);
  wal.simulate_crash();
  std::uint64_t delivered = 0;
  replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_EQ(delivered, 0u);
}

TEST_F(WalTest, AppendAfterCrashThrows) {
  WalWriter wal(dir_);
  wal.append(stream(1)[0]);
  wal.simulate_crash();
  EXPECT_THROW(wal.append(stream(1)[0]), std::runtime_error);
}

TEST_F(WalTest, PruneDeletesCoveredSegmentsNeverTheActiveOne) {
  WalWriter wal(dir_, {.max_segment_bytes = 400});
  for (const auto& s : stream(18)) wal.append(s);
  const auto before = wal_segments(dir_);
  ASSERT_GE(before.size(), 3u);
  // A checkpoint at the horizon covers every record; only whole segments
  // strictly below the active one may go.
  const std::size_t removed = wal.prune_through(wal.next_seq() - 1);
  const auto after = wal_segments(dir_);
  EXPECT_EQ(before.size() - removed, after.size());
  EXPECT_GE(after.size(), 1u);
  // Everything still replayable is exactly the active segment's records.
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  ASSERT_FALSE(seqs.empty());
  EXPECT_EQ(seqs.back(), 17u);
}

TEST_F(WalTest, ResumesNumberingAcrossRestart) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(5)) wal.append(s);
  }
  {
    WalWriter wal(dir_, {}, 5);  // recovery passes last replayed + 1
    EXPECT_EQ(wal.append(stream(6)[5]), 5u);
  }
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(WalTest, MissingDirectoryIsAnEmptyScan) {
  const WalScan scan = replay_wal(dir_ + "/nope", 0, [](const WalRecord&) {});
  EXPECT_EQ(scan.records, 0u);
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.segments, 0u);
}

TEST_F(WalTest, SegmentLargerThanOneReadChunkReplaysEveryRecord) {
  const auto snapshots = stream(1200);
  {
    WalWriter wal(dir_);
    for (const auto& s : snapshots) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const auto seg = read_bytes(segments[0]);
  ASSERT_GT(seg.size(), kWalReadChunkBytes);
  // Some record is cut by the first chunk boundary.
  const auto offsets = record_offsets(seg);
  ASSERT_EQ(offsets.size(), snapshots.size());
  bool straddles = false;
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
    straddles |= offsets[i] < kWalReadChunkBytes &&
                 offsets[i + 1] > kWalReadChunkBytes;
  EXPECT_TRUE(straddles);

  std::size_t next = 0;
  const WalScan scan = replay_wal(dir_, 0, [&](const WalRecord& r) {
    ASSERT_LT(next, snapshots.size());
    EXPECT_EQ(r.seq, next);
    EXPECT_EQ(monitor::encode_packet(r.snapshot),
              monitor::encode_packet(snapshots[next]))
        << next;
    ++next;
  });
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.records, snapshots.size());
  EXPECT_EQ(next, snapshots.size());
}

TEST_F(WalTest, TornRecordPastTheFirstChunkDeliversExactlyThePrefix) {
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(1200)) wal.append(s);
  }
  const std::string segment = wal_segments(dir_).at(0);
  const auto offsets = record_offsets(read_bytes(segment));
  constexpr std::size_t kTorn = 1000;
  ASSERT_GT(offsets[kTorn], kWalReadChunkBytes);
  std::filesystem::resize_file(segment, offsets[kTorn] + 20);

  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_TRUE(scan.truncated_tail);
  ASSERT_EQ(seqs.size(), kTorn);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_EQ(scan.last_seq, kTorn - 1);
}

TEST_F(WalTest, ResealedPacketCorruptionIsRejected) {
  // The record checksum is valid again, so only the packet's FNV-1a-32,
  // checked in the same pass, can catch the flipped byte.
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(1200)) wal.append(s);
  }
  const std::string segment = wal_segments(dir_).at(0);
  auto seg = read_bytes(segment);
  const auto offsets = record_offsets(seg);
  constexpr std::size_t kBad = 900;
  corrupt_packet(seg, offsets[kBad], /*reseal=*/true);
  write_bytes(segment, seg);

  std::uint64_t delivered = 0;
  const WalScan scan =
      replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(delivered, kBad);
  EXPECT_EQ(scan.last_seq, kBad - 1);
}

TEST_F(WalTest, CorruptRecordBelowFromSeqStillEndsItsSegment) {
  // Three records per segment: seqs 0-2, 3-5, 6-8, 9-11.
  {
    WalWriter wal(dir_, {.max_segment_bytes = 1000});
    for (const auto& s : stream(12)) wal.append(s);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_EQ(segments.size(), 4u);
  auto seg = read_bytes(segments[0]);
  const auto offsets = record_offsets(seg);
  ASSERT_EQ(offsets.size(), 3u);
  corrupt_packet(seg, offsets[1], /*reseal=*/false);
  write_bytes(segments[0], seg);

  // Seq 1 is below from_seq and never delivered, yet its corruption ends
  // segment 0: seq 2 is lost, later segments replay.
  std::vector<std::uint64_t> seqs;
  const WalScan scan =
      replay_wal(dir_, 2, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(WalPolicy, StringRoundTrip) {
  for (const auto policy : {FsyncPolicy::kAlways, FsyncPolicy::kInterval,
                            FsyncPolicy::kNever}) {
    const auto parsed = fsync_policy_from_string(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(fsync_policy_from_string("sometimes").has_value());
}

}  // namespace
}  // namespace appclass::persist
