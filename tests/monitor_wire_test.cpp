#include "monitor/wire.hpp"

#include <gtest/gtest.h>

#include "linalg/random.hpp"

namespace appclass::monitor {
namespace {

metrics::Snapshot sample_snapshot(std::uint64_t seed = 1) {
  linalg::Rng rng(seed);
  metrics::Snapshot s;
  s.time = 12345;
  s.node_ip = "10.0.0.1";
  for (auto& v : s.values) v = rng.uniform(-1.0e9, 1.0e9);
  return s;
}

TEST(Wire, RoundTripsExactly) {
  const metrics::Snapshot original = sample_snapshot();
  const auto packet = encode_packet(original);
  const auto decoded = decode_packet(packet);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->time, original.time);
  EXPECT_EQ(decoded->node_ip, original.node_ip);
  for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
    EXPECT_DOUBLE_EQ(decoded->values[i], original.values[i]) << i;
}

TEST(Wire, PacketSizeIsExact) {
  const metrics::Snapshot s = sample_snapshot();
  EXPECT_EQ(encode_packet(s).size(), packet_size(s.node_ip.size()));
}

TEST(Wire, SpecialFloatValuesSurvive) {
  metrics::Snapshot s = sample_snapshot();
  s.values[0] = 0.0;
  s.values[1] = -0.0;
  s.values[2] = 1e-300;
  s.values[3] = std::numeric_limits<double>::max();
  const auto decoded = decode_packet(encode_packet(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->values[2], 1e-300);
  EXPECT_DOUBLE_EQ(decoded->values[3], std::numeric_limits<double>::max());
}

TEST(Wire, RejectsBadMagic) {
  auto packet = encode_packet(sample_snapshot());
  packet[0] ^= 0xFF;
  EXPECT_FALSE(decode_packet(packet).has_value());
}

TEST(Wire, RejectsWrongVersion) {
  auto packet = encode_packet(sample_snapshot());
  packet[5] ^= 0x01;
  EXPECT_FALSE(decode_packet(packet).has_value());
}

TEST(Wire, RejectsTruncation) {
  const auto packet = encode_packet(sample_snapshot());
  for (const std::size_t cut : {0u, 1u, 9u, 20u}) {
    const std::span<const std::uint8_t> truncated(packet.data(),
                                                  packet.size() - 1 - cut);
    EXPECT_FALSE(decode_packet(truncated).has_value());
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  auto packet = encode_packet(sample_snapshot());
  packet.push_back(0x00);
  EXPECT_FALSE(decode_packet(packet).has_value());
}

TEST(Wire, ChecksumCatchesBodyCorruption) {
  linalg::Rng rng(7);
  int rejected = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    auto packet = encode_packet(
        sample_snapshot(static_cast<std::uint64_t>(100 + t)));
    const std::size_t idx =
        10 + rng.uniform_index(packet.size() - 10);  // corrupt the body
    packet[idx] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    if (!decode_packet(packet).has_value()) ++rejected;
  }
  EXPECT_EQ(rejected, trials);
}

TEST(Wire, EmptyNodeIpAllowed) {
  metrics::Snapshot s = sample_snapshot();
  s.node_ip.clear();
  const auto decoded = decode_packet(encode_packet(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->node_ip.empty());
}

TEST(Wire, RandomBytesRejected) {
  linalg::Rng rng(9);
  for (int t = 0; t < 100; ++t) {
    std::vector<std::uint8_t> junk(1 + rng.uniform_index(400));
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    EXPECT_FALSE(decode_packet(junk).has_value());
  }
}

TEST(Wire, DecodeIntoReusedSnapshotMatchesDecodePacket) {
  // The reused target starts with a longer node ip than any packet here,
  // so a decode that kept stale bytes would show.
  metrics::Snapshot reused = sample_snapshot(3);
  reused.node_ip = "192.168.100.200-with-a-long-suffix";
  const auto agrees = [&reused](std::span<const std::uint8_t> packet) {
    const auto fresh = decode_packet(packet);
    const bool ok = decode_packet_into(packet, reused);
    if (ok != fresh.has_value()) return false;
    if (!ok) return true;
    return reused.time == fresh->time && reused.node_ip == fresh->node_ip &&
           encode_packet(reused) == encode_packet(*fresh);
  };

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    metrics::Snapshot s = sample_snapshot(seed);
    s.node_ip = seed % 2 == 0 ? "10.1.2.3" : "";
    const auto packet = encode_packet(s);
    EXPECT_TRUE(agrees(packet)) << seed;
    EXPECT_EQ(reused.node_ip, s.node_ip);
  }

  linalg::Rng rng(7);
  for (int t = 0; t < 200; ++t) {
    auto packet = encode_packet(
        sample_snapshot(static_cast<std::uint64_t>(100 + t)));
    const std::size_t idx = rng.uniform_index(packet.size());
    packet[idx] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    EXPECT_TRUE(agrees(packet)) << t;
    packet.pop_back();
    EXPECT_TRUE(agrees(packet)) << t;
  }

  linalg::Rng junk_rng(9);
  for (int t = 0; t < 100; ++t) {
    std::vector<std::uint8_t> junk(1 + junk_rng.uniform_index(400));
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(junk_rng.uniform_index(256));
    EXPECT_TRUE(agrees(junk)) << t;
  }
}

TEST(Wire, CheckPacketWithoutTargetDecidesLikeDecode) {
  const auto packet = encode_packet(sample_snapshot());
  const std::uint32_t body = common::fnv1a32(
      std::span<const std::uint8_t>(packet).subspan(kPacketBodyOffset));
  EXPECT_TRUE(check_packet(packet, PacketVersion::kV1, body));
  EXPECT_FALSE(check_packet(packet, PacketVersion::kV1, body ^ 1u));
  auto long_ip = packet;
  long_ip[18] = 0xff;  // node-IP length over the cap
  EXPECT_FALSE(check_packet(long_ip, PacketVersion::kV1, common::fnv1a32(
      std::span<const std::uint8_t>(long_ip).subspan(kPacketBodyOffset))));
}

}  // namespace
}  // namespace appclass::monitor
