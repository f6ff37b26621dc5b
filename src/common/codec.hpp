// Integer encodings shared by every format in the repo.
//
// Big-endian fields frame APMC packets, ASNP/ASNH/ASNA frames and WAL
// records; 16-digit lower-case hex spells checksum footers and
// sequence-numbered file names; decimal digits are the one integer
// grammar of CLI flags and HTTP headers. The byte helpers are inline and
// allocation-free (beyond the container's own growth), since the WAL
// append, the replay scan and check_packet use them for every field.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace appclass::common {

// The byte loops are unrolled so that the compiler sees one load or store
// plus a byte swap (bswap/movbe on x86) even at -O2.

/// Reads a big-endian T from p[0, sizeof(T)).
template <std::unsigned_integral T>
inline T get_be(const std::uint8_t* p) noexcept {
  T v = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof v; ++i) v = static_cast<T>(v << 8 | p[i]);
  return v;
}

/// Writes `v` big-endian into p[0, sizeof(T)).
template <std::unsigned_integral T>
inline void store_be(std::uint8_t* p, T v) noexcept {
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof v; ++i)
    p[i] = static_cast<std::uint8_t>(v >> 8 * (sizeof v - 1 - i));
}

/// Appends `v` big-endian to a byte container (std::vector<std::uint8_t>
/// or std::string).
template <std::unsigned_integral T, class Bytes>
inline void put_be(Bytes& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  store_be(reinterpret_cast<std::uint8_t*>(out.data()) + at, v);
}

/// `v` as exactly 16 lower-case hex digits (printf's "%016llx").
inline std::string to_hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; v >>= 4) out[i] = kDigits[v & 0xf];
  return out;
}

/// The inverse of to_hex64: exactly 16 lower-case hex digits, else
/// nullopt.
inline std::optional<std::uint64_t> parse_hex64(
    std::string_view text) noexcept {
  if (text.size() != 16 ||
      text.find_first_not_of("0123456789abcdef") != std::string_view::npos)
    return std::nullopt;
  std::uint64_t v = 0;
  std::from_chars(text.data(), text.data() + text.size(), v, 16);
  return v;
}

/// The repo's one decimal integer grammar: digits only. Deliberately
/// stricter than strtoll, which accepts leading whitespace and a sign, so
/// "--port= 80", "+80" and "-1" are rejected. Every value read this way
/// is a count, port, seed, ordinal or length: non-negative by definition.
/// Length-capped below LLONG_MAX's 19 digits, so overflow cannot occur.
inline std::optional<long long> parse_count(std::string_view text) noexcept {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string_view::npos)
    return std::nullopt;
  long long v = 0;
  std::from_chars(text.data(), text.data() + text.size(), v);
  return v;
}

}  // namespace appclass::common
