#include "monitor/wire.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/codec.hpp"

namespace appclass::monitor {

namespace {

constexpr std::uint32_t kMagic = 0x41504D43;  // "APMC"
constexpr std::uint16_t kVersion = 1;

using common::get_be;
using common::put_be;

}  // namespace

std::vector<std::uint8_t> encode_packet(const metrics::Snapshot& snapshot) {
  APPCLASS_EXPECTS(snapshot.node_ip.size() <= kMaxNodeIpLength);
  std::vector<std::uint8_t> out;
  out.reserve(packet_size(snapshot.node_ip.size()));
  put_be(out, kMagic);
  put_be(out, kVersion);
  put_be(out, std::uint32_t{0});  // checksum, patched below
  put_be(out, static_cast<std::uint64_t>(snapshot.time));
  put_be(out, static_cast<std::uint16_t>(snapshot.node_ip.size()));
  out.insert(out.end(), snapshot.node_ip.begin(), snapshot.node_ip.end());
  for (const double v : snapshot.values)
    put_be(out, std::bit_cast<std::uint64_t>(v));
  common::store_be(out.data() + kPacketBodyOffset - 4,
                   common::fnv1a32(std::span<const std::uint8_t>(out).subspan(
                       kPacketBodyOffset)));
  APPCLASS_ENSURES(out.size() == packet_size(snapshot.node_ip.size()));
  return out;
}

bool check_packet(std::span<const std::uint8_t> packet,
                  std::uint32_t body_hash, metrics::Snapshot* out) {
  // magic .. node-IP length: the fixed prefix every check reads.
  constexpr std::size_t kFixedBytes = 4 + 2 + 4 + 8 + 2;
  const std::uint8_t* p = packet.data();
  if (packet.size() < kFixedBytes) return false;
  if (get_be<std::uint32_t>(p) != kMagic ||
      get_be<std::uint16_t>(p + 4) != kVersion ||
      get_be<std::uint32_t>(p + 6) != body_hash)
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
