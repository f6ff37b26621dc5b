// Known-answer byte tests: each one pins the exact bytes of one on-disk or
// on-wire format, taken from the encoder's output when the literal was
// recorded. They go through public entry points only, so the same file
// compiles against any revision of the encoders; a refactor that moves a
// single byte of any format fails here.
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/fs.hpp"
#include "core/serialize.hpp"
#include "dist/wire.hpp"
#include "monitor/wire.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace appclass {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string hex(const std::string& bytes) {
  return hex({reinterpret_cast<const std::uint8_t*>(bytes.data()),
              bytes.size()});
}

/// The bytes a lower-case hex string spells.
std::string unhex(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  return out;
}

/// `n` zero doubles (eight zero bytes each), as hex.
std::string zero_doubles(std::size_t n) { return std::string(16 * n, '0'); }

metrics::Snapshot fixed_snapshot() {
  metrics::Snapshot s;
  s.time = 42;
  s.node_ip = "10.0.0.1";
  s.set(metrics::MetricId::kCpuUser, 93.5);
  s.set(metrics::MetricId::kBytesIn, 1.25e6);
  s.set(metrics::MetricId::kSwapOut, -0.5);
  return s;
}

/// The APMC packet of fixed_snapshot(), as hex, field by field.
const std::string kPacketHex =
    std::string("41504d43"                 // magic 'APMC'
                "0001"                     // version
                "107e5ee3"                 // FNV-1a-32 over the rest
                "000000000000002a"         // time 42
                "0008"                     // node-IP length
                "31302e302e302e31"         // "10.0.0.1"
                "4057600000000000") +      // cpu_user 93.5
    zero_doubles(19) + "413312d000000000" +  // bytes_in 1.25e6
    zero_doubles(11) + "bfe0000000000000";   // swap_out -0.5

/// The APMC version 2 packet of fixed_snapshot(): kPacketHex's body under
/// a CRC32C body checksum.
const std::string kPacketV2Hex = std::string("41504d43"   // magic 'APMC'
                                             "0002"       // version
                                             "003aa013")  // CRC32C
                                 + kPacketHex.substr(20);

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/appclass_kat_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST(KnownAnswer, ApmcPacket) {
  EXPECT_EQ(hex(monitor::encode_packet(fixed_snapshot())), kPacketHex);
}

TEST(KnownAnswer, ApmcPacketV2) {
  EXPECT_EQ(hex(monitor::encode_packet(fixed_snapshot(),
                                       monitor::PacketVersion::kV2)),
            kPacketV2Hex);
  const auto decoded = monitor::decode_packet(
      monitor::encode_packet(fixed_snapshot(), monitor::PacketVersion::kV2));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hex(monitor::encode_packet(*decoded)), kPacketHex);
}

TEST(KnownAnswer, AsnpFrame) {
  obs::TraceContext trace;
  trace.trace_id = 0x0123456789abcdefULL;
  trace.span_id = 0xfedcba9876543210ULL;
  const std::vector<std::uint8_t> frame =
      dist::encode_frame(fixed_snapshot(), 42, trace, 1700000000000000ULL);
  EXPECT_EQ(hex(frame), "41534e50"           // magic 'ASNP'
                        "02"                 // wire version
                        "000000000000002a"   // seq 42
                        "0123456789abcdef"   // trace id
                        "fedcba9876543210"   // span id
                        "00060a24181e4000"   // announce µs
                        "00000124" +         // payload length 292
                            kPacketHex +
                            "e2c7c72d55ecc7e5");  // FNV-1a-64
}

TEST(KnownAnswer, AsnhHello) {
  // magic 'ASNH', wire version, wal_next, FNV-1a-64 over version..wal_next.
  EXPECT_EQ(hex(dist::encode_hello({.wal_next = 42})),
            "41534e4802000000000000002a0cd952f54dc65677");
  EXPECT_EQ(hex(dist::encode_hello({.wal_next = UINT64_MAX})),
            "41534e4802ffffffffffffffffaf94b0dfc57cce5d");
}

TEST(KnownAnswer, AsnaAck) {
  // magic 'ASNA', cumulative seq.
  EXPECT_EQ(hex(dist::encode_ack(42)), "41534e41000000000000002a");
  EXPECT_EQ(hex(dist::encode_ack(UINT64_MAX)), "41534e41ffffffffffffffff");
}

using KnownAnswerFiles = TempDir;

TEST_F(KnownAnswerFiles, OneRecordWalSegmentAndItsName) {
  const std::string dir = root_ + "/wal";
  {
    persist::WalWriter wal(dir, {}, 42);
    EXPECT_EQ(wal.append(fixed_snapshot()), 42u);
  }
  const std::string path = dir + "/wal-000000000000002a.seg";
  EXPECT_EQ(persist::wal_segments(dir), std::vector<std::string>{path});
  EXPECT_EQ(hex(common::read_file_or_throw(path)),
            "617070636c6173732d77616c2076320a"  // "appclass-wal v2\n"
            "57414c52"                          // record magic 'WALR'
            "000000000000002a"                  // seq 42
            "00000124" +                        // payload length 292
                kPacketV2Hex +
                "daf60a51");  // CRC32C over seq|len|payload
  std::vector<std::uint64_t> seqs;
  persist::replay_wal(dir, 0, [&](const persist::WalRecord& r) {
    seqs.push_back(r.seq);
  });
  EXPECT_EQ(seqs, std::vector<std::uint64_t>{42});
}

TEST_F(KnownAnswerFiles, V1OneRecordWalSegmentStillReplays) {
  // The segment an `appclass-wal v1` writer left, byte for byte.
  const std::string dir = root_ + "/wal";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  common::atomic_write_file(
      dir + "/wal-000000000000002a.seg",
      unhex("617070636c6173732d77616c2076310a"  // "appclass-wal v1\n"
            "57414c52"                          // record magic 'WALR'
            "000000000000002a"                  // seq 42
            "00000124" +                        // payload length 292
            kPacketHex +
            "d0d9a458e1bdbb8b"));  // FNV-1a-64 over seq|len|payload
  std::vector<std::uint64_t> seqs;
  std::vector<std::string> packets;
  const persist::WalScan scan =
      persist::replay_wal(dir, 0, [&](const persist::WalRecord& r) {
        seqs.push_back(r.seq);
        packets.push_back(hex(monitor::encode_packet(r.snapshot)));
      });
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(seqs, std::vector<std::uint64_t>{42});
  EXPECT_EQ(packets, std::vector<std::string>{kPacketHex});
}

persist::CheckpointData fixed_checkpoint() {
  persist::CheckpointData data;
  data.wal_next = 42;
  data.options = {.sampling_interval_s = 2,
                  .window = 3,
                  .stability = 2,
                  .min_coverage = 0.625};
  data.online.classified = 7;
  data.online.abstained = 1;
  core::OnlineNodeImage node;
  node.node_ip = "10.0.0.1";
  node.window = {{0, core::ApplicationClass::kCpu},
                 {2, core::ApplicationClass::kIo}};
  node.stable_class = core::ApplicationClass::kCpu;
  node.candidate = core::ApplicationClass::kIo;
  node.candidate_streak = 1;
  node.first_time = 0;
  node.coverage = 0.875;
  data.online.nodes = {node};
  data.appdb_csv = "name,class\npostmark,io\n";
  return data;
}

TEST(KnownAnswer, EncodeCheckpoint) {
  EXPECT_EQ(persist::encode_checkpoint(fixed_checkpoint()),
            "appclass-checkpoint v1\n"
            "wal-next 42\n"
            "options 2 3 2 0.625\n"
            "online 7 1 1\n"
            "node 10.0.0.1 0 0.875 cpu io 1 2 0 cpu 2 io\n"
            "appdb 23\n"
            "name,class\n"
            "postmark,io\n"
            "\n"
            "checksum 7132a00e09ba59d9\n");
}

TEST_F(KnownAnswerFiles, CheckpointFileName) {
  const std::string dir = root_ + "/checkpoints";
  const std::string path = persist::write_checkpoint(dir, fixed_checkpoint());
  EXPECT_EQ(path, dir + "/checkpoint-000000000000002a.ckpt");
  EXPECT_EQ(persist::checkpoint_files(dir), std::vector<std::string>{path});
  const auto loaded = persist::load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.wal_next, 42u);
}

/// A fixed one-point model body; its footer is FNV-1a-64 over every byte
/// before "checksum ".
constexpr std::string_view kModelBody =
    "appclass-pipeline v2\n"
    "metrics 1 cpu_user\n"
    "norm-mean 0.5\n"
    "norm-stddev 2\n"
    "pca 1 1\n"
    "pca-mean 0.25\n"
    "pca-eigenvalues 1\n"
    "pca-row 1\n"
    "knn 1 1 euclidean\n"
    "cpu 0.75\n";

TEST(KnownAnswer, SealedModelFooter) {
  const std::string text =
      std::string(kModelBody) + "checksum dc9097c98f25484f\n";
  // The loader accepts the recorded footer, and the saver writes it back.
  EXPECT_EQ(core::save_pipeline(core::load_pipeline(text)), text);
}

}  // namespace
}  // namespace appclass
