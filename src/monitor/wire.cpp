#include "monitor/wire.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace appclass::monitor {

namespace {

constexpr std::uint32_t kMagic = 0x41504D43;  // "APMC"
constexpr std::uint16_t kVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | get_u32(p + 4);
}

}  // namespace

std::vector<std::uint8_t> encode_packet(const metrics::Snapshot& snapshot) {
  APPCLASS_EXPECTS(snapshot.node_ip.size() <= kMaxNodeIpLength);
  std::vector<std::uint8_t> out;
  out.reserve(packet_size(snapshot.node_ip.size()));
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  const std::size_t checksum_slot = out.size();
  put_u32(out, 0);  // placeholder
  put_u64(out, static_cast<std::uint64_t>(snapshot.time));
  put_u16(out, static_cast<std::uint16_t>(snapshot.node_ip.size()));
  out.insert(out.end(), snapshot.node_ip.begin(), snapshot.node_ip.end());
  for (const double v : snapshot.values) put_f64(out, v);

  const std::uint32_t checksum = common::fnv1a32(
      std::span<const std::uint8_t>(out).subspan(kPacketBodyOffset));
  out[checksum_slot + 0] = static_cast<std::uint8_t>(checksum >> 24);
  out[checksum_slot + 1] = static_cast<std::uint8_t>(checksum >> 16);
  out[checksum_slot + 2] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_slot + 3] = static_cast<std::uint8_t>(checksum);
  APPCLASS_ENSURES(out.size() == packet_size(snapshot.node_ip.size()));
  return out;
}

bool check_packet(std::span<const std::uint8_t> packet,
                  std::uint32_t body_hash, metrics::Snapshot* out) {
  // magic .. node-IP length: the fixed prefix every check reads.
  constexpr std::size_t kFixedBytes = 4 + 2 + 4 + 8 + 2;
  const std::uint8_t* p = packet.data();
  if (packet.size() < kFixedBytes) return false;
  if (get_u32(p) != kMagic || get_u16(p + 4) != kVersion ||
      get_u32(p + 6) != body_hash)
    return false;
  const std::size_t ip_len = get_u16(p + 18);
  if (ip_len > kMaxNodeIpLength || packet.size() != packet_size(ip_len))
    return false;
  if (out == nullptr) return true;

  out->time = static_cast<metrics::SimTime>(get_u64(p + 10));
  out->node_ip.assign(reinterpret_cast<const char*>(p + kFixedBytes), ip_len);
  const std::uint8_t* values = p + kFixedBytes + ip_len;
  for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
    out->values[i] = std::bit_cast<double>(get_u64(values + 8 * i));
  return true;
}

bool decode_packet_into(std::span<const std::uint8_t> packet,
                        metrics::Snapshot& out) {
  if (packet.size() < kPacketBodyOffset) return false;
  return check_packet(
      packet, common::fnv1a32(packet.subspan(kPacketBodyOffset)), &out);
}

std::optional<metrics::Snapshot> decode_packet(
    std::span<const std::uint8_t> packet) {
  metrics::Snapshot s;
  if (!decode_packet_into(packet, s)) return std::nullopt;
  return s;
}

common::Fnv1aLanes hash_envelope(std::span<const std::uint8_t> envelope,
                                 std::size_t packet_at) {
  const std::size_t split =
      std::min(envelope.size(), packet_at + kPacketBodyOffset);
  common::Fnv1aLanes lanes;
  lanes.h64 = common::fnv1a64(envelope.first(split));
  return common::fnv1a_fused(envelope.subspan(split), lanes);
}

}  // namespace appclass::monitor
