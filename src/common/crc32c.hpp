// CRC-32C (Castagnoli et al. 1993): the checksum of WAL v2 records and of
// the APMC v2 packets they carry.
//
// x86 CPUs with SSE4.2 compute it with one `crc32` instruction per eight
// bytes; whether this CPU has it is decided once, on first use. Every
// other CPU, and any x86 without SSE4.2, takes the portable
// slicing-by-8 table path, which is also callable directly so tests can
// pin both paths to the same answers on any host.
//
// `crc32c(bytes, crc)` continues from a finished CRC (0 to start), so a
// CRC over concatenated pieces is a chain of calls.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <nmmintrin.h>
#define APPCLASS_CRC32C_X86 1
#endif

namespace appclass::common {

/// The Castagnoli polynomial, bit-reflected.
inline constexpr std::uint32_t kCrc32cPolynomial = 0x82F63B78u;

namespace crc32c_detail {

/// table[k][b]: the CRC of byte b followed by k zero bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32cPolynomial : 0u);
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
  return t;
}

inline constexpr Tables kTables = make_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace crc32c_detail

/// The table path: slicing-by-8, on every CPU.
inline std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes,
                                     std::uint32_t crc = 0) noexcept {
  const auto& t = crc32c_detail::kTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ crc32c_detail::load_le32(p);
    const std::uint32_t hi = crc32c_detail::load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xffu];
  return ~crc;
}

#ifdef APPCLASS_CRC32C_X86

/// True when this CPU has SSE4.2's `crc32` instruction (CPUID leaf 1).
inline bool crc32c_hardware_available() noexcept {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_SSE4_2) != 0;
  }();
  return available;
}

/// The SSE4.2 path; call only when crc32c_hardware_available().
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hardware(
    std::span<const std::uint8_t> bytes, std::uint32_t crc = 0) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
#ifdef __x86_64__
  std::uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
#endif
  for (; n >= 4; p += 4, n -= 4) {
    std::uint32_t word;
    std::memcpy(&word, p, 4);
    crc = _mm_crc32_u32(crc, word);
  }
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return ~crc;
}

#else

/// No CPU of this architecture has the x86 instruction.
inline bool crc32c_hardware_available() noexcept { return false; }

/// Off x86 there is no hardware path: this is crc32c_portable.
inline std::uint32_t crc32c_hardware(std::span<const std::uint8_t> bytes,
                                     std::uint32_t crc = 0) noexcept {
  return crc32c_portable(bytes, crc);
}

#endif

/// CRC-32C of `bytes`, continuing from `crc`: the hardware path when the
/// CPU has one, else the table path. Both give the same value.
inline std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                            std::uint32_t crc = 0) noexcept {
  return crc32c_hardware_available() ? crc32c_hardware(bytes, crc)
                                     : crc32c_portable(bytes, crc);
}

}  // namespace appclass::common
