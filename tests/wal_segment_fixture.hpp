// Test-side WAL segment builder, independent of persist::WalWriter. The
// writer writes only `appclass-wal v2`, so this is how tests lay down
// `appclass-wal v1` segments for the reader; it can also seal a record
// around any payload, so tests can build records the writer never would.
#pragma once

#include <sys/stat.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/crc32c.hpp"
#include "common/fnv1a.hpp"
#include "common/fs.hpp"
#include "metrics/snapshot.hpp"
#include "monitor/wire.hpp"

namespace appclass::persist::testing {

/// The 16-byte header line of a segment of `wal_version` (1 or 2).
inline std::string wal_segment_header(int wal_version) {
  return "appclass-wal v" + std::to_string(wal_version) + "\n";
}

/// One record around `payload`: 'WALR', seq, length, payload, then the
/// record checksum of `wal_version` over seq|len|payload (1: FNV-1a-64,
/// 2: CRC32C).
inline std::vector<std::uint8_t> wal_record(
    int wal_version, std::uint64_t seq,
    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  common::put_be(out, std::uint32_t{0x57414C52});
  common::put_be(out, seq);
  common::put_be(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const auto sealed = std::span<const std::uint8_t>(out).subspan(4);
  if (wal_version == 1)
    common::put_be(out, common::fnv1a64(sealed));
  else
    common::put_be(out, common::crc32c(sealed));
  return out;
}

/// A whole segment of `wal_version`: its header line, then one record per
/// snapshot with seqs from `first_seq`, each holding the packet version
/// that segment version fixes (v1 -> APMC v1, v2 -> APMC v2).
inline std::vector<std::uint8_t> wal_segment(
    int wal_version, std::uint64_t first_seq,
    const std::vector<metrics::Snapshot>& snapshots) {
  const std::string header = wal_segment_header(wal_version);
  std::vector<std::uint8_t> out(header.begin(), header.end());
  const auto packet_version = wal_version == 1 ? monitor::PacketVersion::kV1
                                               : monitor::PacketVersion::kV2;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto record =
        wal_record(wal_version, first_seq + i,
                   monitor::encode_packet(snapshots[i], packet_version));
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

/// Writes `bytes` as the segment `dir/wal-<first_seq, 16 hex>.seg`,
/// creating `dir`; returns the path.
inline std::string write_wal_segment(const std::string& dir,
                                     std::uint64_t first_seq,
                                     std::span<const std::uint8_t> bytes) {
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/wal-" + common::to_hex64(first_seq) + ".seg";
  common::atomic_write_file(path, std::string(bytes.begin(), bytes.end()));
  return path;
}

}  // namespace appclass::persist::testing
