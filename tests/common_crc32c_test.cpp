// CRC-32C: the published known answer on both paths, hardware == table
// for every length and alignment a WAL record can present, and chaining.
#include "common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace appclass::common {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// 1,032 pseudo-random bytes: room for length 1024 at offset 7.
std::vector<std::uint8_t> noise() {
  std::vector<std::uint8_t> out(1024 + 8);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

TEST(Crc32c, PortableKnownAnswers) {
  EXPECT_EQ(crc32c_portable(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c_portable(bytes_of("")), 0u);
  // RFC 3720 (iSCSI) B.4: 32 bytes of zeros.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c_portable(zeros), 0x8A9136AAu);
}

TEST(Crc32c, HardwareKnownAnswer) {
  if (!crc32c_hardware_available())
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  EXPECT_EQ(crc32c_hardware(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c_hardware(bytes_of("")), 0u);
}

TEST(Crc32c, DispatchedKnownAnswer) {
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32c, HardwareAgreesWithPortableAtEveryLengthAndOffset) {
  if (!crc32c_hardware_available())
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  const std::vector<std::uint8_t> data = noise();
  const std::span<const std::uint8_t> all(data);
  int disagreements = 0;
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 1024; ++length) {
      const auto piece = all.subspan(offset, length);
      if (crc32c_hardware(piece) != crc32c_portable(piece)) {
        ++disagreements;
        ADD_FAILURE() << "offset " << offset << " length " << length;
        if (disagreements > 10) return;
      }
    }
}

TEST(Crc32c, ChainedCallsEqualOneCall) {
  const std::vector<std::uint8_t> data = noise();
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32c(all);
  EXPECT_EQ(whole, crc32c_portable(all));
  for (const std::size_t split : {0u, 1u, 7u, 12u, 300u, 1031u, 1032u}) {
    EXPECT_EQ(crc32c(all.subspan(split), crc32c(all.first(split))), whole)
        << split;
    EXPECT_EQ(crc32c_portable(all.subspan(split),
                              crc32c_portable(all.first(split))),
              whole)
        << split;
  }
  // Three pieces, mixing the two paths.
  EXPECT_EQ(crc32c_portable(all.subspan(500),
                            crc32c(all.subspan(3, 497),
                                   crc32c_portable(all.first(3)))),
            whole);
}

}  // namespace
}  // namespace appclass::common
