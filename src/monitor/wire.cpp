#include "monitor/wire.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "common/crc32c.hpp"

namespace appclass::monitor {

namespace {

constexpr std::uint32_t kMagic = 0x41504D43;  // "APMC"

using common::get_be;
using common::store_be;

}  // namespace

void write_packet(std::uint8_t* out, const metrics::Snapshot& snapshot,
                  PacketVersion version) {
  const std::size_t ip_len = snapshot.node_ip.size();
  APPCLASS_EXPECTS(ip_len <= kMaxNodeIpLength);
  store_be(out, kMagic);
  store_be(out + 4, static_cast<std::uint16_t>(version));
  store_be(out + 10, static_cast<std::uint64_t>(snapshot.time));
  store_be(out + 18, static_cast<std::uint16_t>(ip_len));
  std::copy(snapshot.node_ip.begin(), snapshot.node_ip.end(), out + 20);
  std::uint8_t* values = out + 20 + ip_len;
  for (const double v : snapshot.values) {
    store_be(values, std::bit_cast<std::uint64_t>(v));
    values += 8;
  }
  const std::span<const std::uint8_t> body(
      out + kPacketBodyOffset, packet_size(ip_len) - kPacketBodyOffset);
  store_be(out + kPacketBodyOffset - 4, packet_body_checksum(body, version));
}

std::vector<std::uint8_t> encode_packet(const metrics::Snapshot& snapshot,
                                        PacketVersion version) {
  std::vector<std::uint8_t> out(packet_size(snapshot.node_ip.size()));
  write_packet(out.data(), snapshot, version);
  return out;
}

std::uint32_t packet_body_checksum(std::span<const std::uint8_t> body,
                                   PacketVersion version) {
  return version == PacketVersion::kV2 ? common::crc32c(body)
                                       : common::fnv1a32(body);
}

bool check_packet(std::span<const std::uint8_t> packet, PacketVersion version,
                  std::uint32_t body_checksum, metrics::Snapshot* out) {
  // magic .. node-IP length: the fixed prefix every check reads.
  constexpr std::size_t kFixedBytes = 4 + 2 + 4 + 8 + 2;
  const std::uint8_t* p = packet.data();
  if (packet.size() < kFixedBytes) return false;
  if (get_be<std::uint32_t>(p) != kMagic ||
      get_be<std::uint16_t>(p + 4) != static_cast<std::uint16_t>(version) ||
      get_be<std::uint32_t>(p + 6) != body_checksum)
    return false;
  const std::size_t ip_len = get_be<std::uint16_t>(p + 18);
  if (ip_len > kMaxNodeIpLength || packet.size() != packet_size(ip_len))
    return false;
  if (out == nullptr) return true;

  out->time = static_cast<metrics::SimTime>(get_be<std::uint64_t>(p + 10));
  out->node_ip.assign(reinterpret_cast<const char*>(p + kFixedBytes), ip_len);
  const std::uint8_t* values = p + kFixedBytes + ip_len;
  for (std::size_t i = 0; i < metrics::kMetricCount; ++i)
    out->values[i] =
        std::bit_cast<double>(get_be<std::uint64_t>(values + 8 * i));
  return true;
}

bool decode_packet_into(std::span<const std::uint8_t> packet,
                        metrics::Snapshot& out) {
  if (packet.size() < kPacketBodyOffset) return false;
  const std::uint16_t field = get_be<std::uint16_t>(packet.data() + 4);
  if (field != static_cast<std::uint16_t>(PacketVersion::kV1) &&
      field != static_cast<std::uint16_t>(PacketVersion::kV2))
    return false;
  const auto version = static_cast<PacketVersion>(field);
  return check_packet(
      packet, version,
      packet_body_checksum(packet.subspan(kPacketBodyOffset), version), &out);
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
