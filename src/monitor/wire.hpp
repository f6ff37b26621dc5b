// Wire format for metric announcements.
//
// Real gmond marshals metrics with XDR onto UDP multicast. This module
// provides the equivalent binary framing for snapshots so announcements
// can cross process or machine boundaries: a fixed magic + version header,
// the node identity, the timestamp, and the 33 metric values as
// big-endian IEEE-754 doubles, closed by a checksum. Decoding validates
// every field and rejects corrupt or truncated packets.
//
// Packet layout (all integers big-endian):
//
//   u32  magic 'APMC'
//   u16  version
//   u32  body checksum over every byte after this field:
//        version 1: FNV-1a-32, version 2: CRC32C
//   u64  time
//   u16  node-IP length (<= kMaxNodeIpLength)
//   ...  node IP
//   33 x f64 metric values
//
// The two versions differ only in the body checksum. Envelopes fix the
// version of the packet they carry: dist frames (ASNP) and `appclass-wal
// v1` records carry version 1, `appclass-wal v2` records version 2, and a
// reader rejects any other pairing as corruption. A v1 envelope is sealed
// by FNV-1a-64, so its reader hashes the envelope and the packet body in
// one pass (`hash_envelope`); a v2 reader computes the two CRCs. Either
// then checks and decodes the packet with the body checksum it already
// holds (`check_packet`).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::monitor {

/// Maximum node-IP length accepted on the wire.
inline constexpr std::size_t kMaxNodeIpLength = 64;

/// Offset of the first byte the packet checksum covers.
inline constexpr std::size_t kPacketBodyOffset = 10;

/// Which checksum seals the packet body.
enum class PacketVersion : std::uint16_t {
  kV1 = 1,  ///< FNV-1a-32
  kV2 = 2,  ///< CRC32C
};

/// Exact encoded size of a snapshot with the given node-IP length.
constexpr std::size_t packet_size(std::size_t node_ip_length) {
  // magic + version + checksum + time + ip length + ip + 33 doubles.
  return 4 + 2 + 4 + 8 + 2 + node_ip_length + 8 * metrics::kMetricCount;
}

/// Writes the packet of `snapshot` to out[0, packet_size(node ip length)).
void write_packet(std::uint8_t* out, const metrics::Snapshot& snapshot,
                  PacketVersion version);

/// Encodes a snapshot into a self-contained packet.
std::vector<std::uint8_t> encode_packet(
    const metrics::Snapshot& snapshot,
    PacketVersion version = PacketVersion::kV1);

/// The body checksum of `version` over `body` (packet[kPacketBodyOffset..]).
std::uint32_t packet_body_checksum(std::span<const std::uint8_t> body,
                                   PacketVersion version);

/// Checks a packet of the given version whose body checksum the caller
/// has computed: magic, version, checksum, node-IP length cap and exact
/// length. Returns false for anything malformed, a packet of another
/// version included. When `out` is non-null, a valid packet is decoded
/// into it (reusing its node_ip storage); after false, *out is unchanged.
bool check_packet(std::span<const std::uint8_t> packet, PacketVersion version,
                  std::uint32_t body_checksum,
                  metrics::Snapshot* out = nullptr);

/// Decodes a packet of either version into a reused snapshot; false (and
/// `out` unchanged) for anything `decode_packet` rejects.
bool decode_packet_into(std::span<const std::uint8_t> packet,
                        metrics::Snapshot& out);

/// Decodes a packet of either version; returns nullopt for anything
/// malformed: wrong magic, unknown version, truncated buffer, oversized
/// node id, trailing bytes, or a checksum mismatch.
std::optional<metrics::Snapshot> decode_packet(
    std::span<const std::uint8_t> packet);

/// One pass over a v1 envelope that ends in a v1 packet starting at
/// `packet_at`: `h64` is FNV-1a-64 over all of `envelope` (the WAL record
/// or dist frame checksum) and `h32` the packet's body hash, ready for
/// `check_packet`.
common::Fnv1aLanes hash_envelope(std::span<const std::uint8_t> envelope,
                                 std::size_t packet_at);

}  // namespace appclass::monitor
