// Write-ahead log: append/replay round trip, segment rotation, torn-tail
// semantics, pruning, and the crash-loss bounds of each fsync policy
// (simulate_crash models SIGKILL: written bytes survive in the page
// cache, the user-space buffer vanishes). The writer writes `appclass-wal
// v2`; `appclass-wal v1` segments, which the reader still accepts, are
// laid down by the test-side builder in wal_segment_fixture.hpp.
#include "persist/wal.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/crc32c.hpp"
#include "common/fnv1a.hpp"
#include "core_test_util.hpp"
#include "counting_allocator.hpp"
#include "monitor/wire.hpp"
#include "obs/metrics.hpp"
#include "wal_segment_fixture.hpp"

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

/// Size of a segment's record checksum, from its header line
/// ("appclass-wal v1\n" or "...v2\n"): FNV-1a-64 in v1, CRC32C in v2.
std::size_t footer_bytes(const std::vector<std::uint8_t>& seg) {
  return seg.at(14) == '1' ? 8 : 4;
}

/// Byte offset of every record in a segment (after the 16-byte header).
std::vector<std::size_t> record_offsets(const std::vector<std::uint8_t>& seg) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 16; pos + 16 <= seg.size();
       pos += 16 + static_cast<std::size_t>(be(seg, pos + 12, 4)) +
              footer_bytes(seg))
    out.push_back(pos);
  return out;
}

/// Flips one byte inside the packet body of the record at `offset` and,
/// when `reseal`, rewrites the record's checksum (v1: FNV-1a-64, v2:
/// CRC32C) to match, so only the packet's own checksum still tells.
void corrupt_packet(std::vector<std::uint8_t>& seg, std::size_t offset,
                    bool reseal) {
  const auto len = static_cast<std::size_t>(be(seg, offset + 12, 4));
  seg[offset + 16 + monitor::kPacketBodyOffset + 30] ^= 0x5a;
  if (!reseal) return;
  const auto sealed =
      std::span<const std::uint8_t>(seg).subspan(offset + 4, 12 + len);
  std::uint8_t* footer = seg.data() + offset + 16 + len;
  if (footer_bytes(seg) == 8)
    common::store_be(footer, common::fnv1a64(sealed));
  else
    common::store_be(footer, common::crc32c(sealed));
}

/// Replays a directory holding one corrupt record at `bad` (of 1,200 in
/// one segment) and expects exactly the records before it.
void expect_prefix_before(const std::string& dir, std::size_t bad) {
  std::uint64_t delivered = 0;
  const WalScan scan =
      replay_wal(dir, 0, [&](const WalRecord&) { ++delivered; });
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(delivered, bad);
  EXPECT_EQ(scan.last_seq, bad - 1);
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
  // The record's CRC32C is valid again, so only the packet's own CRC32C,
  // checked with it, can catch the flipped byte.
  {
    WalWriter wal(dir_);
    for (const auto& s : stream(1200)) wal.append(s);
  }
  const std::string segment = wal_segments(dir_).at(0);
  auto seg = read_bytes(segment);
  ASSERT_EQ(footer_bytes(seg), 4u);
  const auto offsets = record_offsets(seg);
  constexpr std::size_t kBad = 900;
  corrupt_packet(seg, offsets[kBad], /*reseal=*/true);
  write_bytes(segment, seg);
  expect_prefix_before(dir_, kBad);
}

TEST_F(WalTest, ResealedPacketCorruptionIsRejectedInV1Segment) {
  // The same corruption in a v1 segment: the record's FNV-1a-64 is
  // resealed, so only the packet's FNV-1a-32 can catch it.
  auto seg = testing::wal_segment(1, 0, stream(1200));
  const auto offsets = record_offsets(seg);
  ASSERT_EQ(offsets.size(), 1200u);
  constexpr std::size_t kBad = 900;
  corrupt_packet(seg, offsets[kBad], /*reseal=*/true);
  testing::write_wal_segment(dir_, 0, seg);
  expect_prefix_before(dir_, kBad);
}

TEST_F(WalTest, EveryBitFlipOfAOneRecordSegmentIsRejected) {
  {
    WalWriter wal(dir_);
    wal.append(stream(1)[0]);
  }
  const std::string segment = wal_segments(dir_).at(0);
  const auto clean = read_bytes(segment);
  // Header line, then 'WALR' | seq | len | 292-byte packet | CRC32C.
  ASSERT_EQ(clean.size(), 16u + 16u + monitor::packet_size(8) + 4u);
  std::size_t escaped = 0;
  for (std::size_t bit = 0; bit < 8 * clean.size(); ++bit) {
    auto seg = clean;
    seg[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write_bytes(segment, seg);
    std::uint64_t delivered = 0;
    const WalScan scan =
        replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
    if (delivered != 0 || !scan.truncated_tail) {
      ADD_FAILURE() << "bit " << bit << " (byte " << bit / 8
                    << ") delivered " << delivered << " record(s)";
      if (++escaped > 10) break;
    }
  }
  write_bytes(segment, clean);
  std::uint64_t delivered = 0;
  EXPECT_FALSE(replay_wal(dir_, 0, [&](const WalRecord&) {
                 ++delivered;
               }).truncated_tail);
  EXPECT_EQ(delivered, 1u);
}

TEST_F(WalTest, EnvelopeFixesThePacketVersion) {
  // A correctly sealed record whose packet is of the other version is
  // corruption; each matched pairing is the control.
  const metrics::Snapshot snapshot = stream(1)[0];
  for (const int wal_version : {1, 2})
    for (const auto packet_version :
         {monitor::PacketVersion::kV1, monitor::PacketVersion::kV2}) {
      std::filesystem::remove_all(dir_);
      const std::string header = testing::wal_segment_header(wal_version);
      std::vector<std::uint8_t> seg(header.begin(), header.end());
      const auto record = testing::wal_record(
          wal_version, 0, monitor::encode_packet(snapshot, packet_version));
      seg.insert(seg.end(), record.begin(), record.end());
      testing::write_wal_segment(dir_, 0, seg);

      const bool matched =
          static_cast<int>(packet_version) == wal_version;
      std::uint64_t delivered = 0;
      const WalScan scan =
          replay_wal(dir_, 0, [&](const WalRecord&) { ++delivered; });
      EXPECT_EQ(delivered, matched ? 1u : 0u) << wal_version;
      EXPECT_EQ(scan.truncated_tail, !matched) << wal_version;
    }
}

TEST_F(WalTest, V1SegmentsThenV2SegmentsReplayInSeqOrder) {
  // An upgraded state dir: two v1 segments (seqs 0-4, 5-9), then a
  // writer that resumes at seq 10 and rotates through v2 segments.
  const auto snapshots = stream(20);
  const auto slice = [&](std::size_t from, std::size_t to) {
    return std::vector<metrics::Snapshot>(
        snapshots.begin() + static_cast<std::ptrdiff_t>(from),
        snapshots.begin() + static_cast<std::ptrdiff_t>(to));
  };
  testing::write_wal_segment(dir_, 0, testing::wal_segment(1, 0, slice(0, 5)));
  testing::write_wal_segment(dir_, 5,
                             testing::wal_segment(1, 5, slice(5, 10)));
  {
    WalWriter wal(dir_, {.max_segment_bytes = 1000}, 10);
    for (std::size_t i = 10; i < 20; ++i)
      EXPECT_EQ(wal.append(snapshots[i]), i);
  }
  const auto segments = wal_segments(dir_);
  ASSERT_GE(segments.size(), 4u);
  EXPECT_EQ(read_bytes(segments[1]).at(14), '1');
  EXPECT_EQ(read_bytes(segments[2]).at(14), '2');

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
  EXPECT_EQ(scan.records, 20u);
  EXPECT_EQ(scan.segments, segments.size());
  EXPECT_EQ(next, 20u);

  // A replay that starts inside the v1 tail crosses into v2 the same way.
  std::vector<std::uint64_t> seqs;
  replay_wal(dir_, 8, [&](const WalRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{8, 9, 10, 11, 12, 13, 14, 15,
                                              16, 17, 18, 19}));
}

TEST_F(WalTest, NeverPolicyAppendIsAllocationFree) {
  // Each record is encoded straight into the writer's buffer, whose
  // capacity survives a flush; warm past the first flush, then count.
  const auto snapshots = stream(64);
  WalWriter wal(dir_, {.fsync = FsyncPolicy::kNever});
  for (std::size_t i = 0; i < 1000; ++i)
    wal.append(snapshots[i % snapshots.size()]);
  constexpr std::size_t kAppends = 2000;  // ~626 KB: two more flushes
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < kAppends; ++i)
    wal.append(snapshots[i % snapshots.size()]);
  const std::uint64_t after = allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state append allocated " << (after - before)
      << " times over " << kAppends << " appends";
  EXPECT_EQ(wal_segments(dir_).size(), 1u);  // no rotation in the window
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
