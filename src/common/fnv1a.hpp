// FNV-1a (Fowler-Noll-Vo, variant 1a): the hash behind the consistent-hash
// ring and every checksum except WAL v2's (common/crc32c.hpp).
//
// FNV-1a-64 seals dist frames (ASNP, ASNH), checkpoints, model files and
// the records of `appclass-wal v1` segments, which the WAL reader still
// accepts, and places shards on the ring; FNV-1a-32 seals APMC version 1
// packets. A v1 WAL record and a dist frame each carry such a packet, so
// reading one checks both hashes over the same bytes. `fnv1a_fused`
// advances both in one loop: the two multiply chains do not depend on each
// other, so the CPU overlaps them and the packet hash costs almost nothing
// on top of the outer one.
//
// Every function continues from a given state, so a hash over
// concatenated pieces is a chain of calls.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace appclass::common {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;
inline constexpr std::uint32_t kFnv1a32Offset = 0x811c9dc5u;
inline constexpr std::uint32_t kFnv1a32Prime = 0x01000193u;

inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t hash = kFnv1a64Offset) noexcept {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnv1a64Prime;
  }
  return hash;
}

inline std::uint64_t fnv1a64(std::string_view text,
                             std::uint64_t hash = kFnv1a64Offset) noexcept {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

inline std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes,
                             std::uint32_t hash = kFnv1a32Offset) noexcept {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnv1a32Prime;
  }
  return hash;
}

/// The state of both hashes over one byte stream.
struct Fnv1aLanes {
  std::uint64_t h64 = kFnv1a64Offset;
  std::uint32_t h32 = kFnv1a32Offset;
};

/// Advances both lanes over the same `bytes` in one loop; equal to
/// `{fnv1a64(bytes, lanes.h64), fnv1a32(bytes, lanes.h32)}`.
inline Fnv1aLanes fnv1a_fused(std::span<const std::uint8_t> bytes,
                              Fnv1aLanes lanes = {}) noexcept {
  for (const std::uint8_t b : bytes) {
    lanes.h64 = (lanes.h64 ^ b) * kFnv1a64Prime;
    lanes.h32 = (lanes.h32 ^ b) * kFnv1a32Prime;
  }
  return lanes;
}

}  // namespace appclass::common
