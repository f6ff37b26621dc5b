// FNV-1a known answers (the published test vectors) and the fused
// two-lane step every WAL record and dist frame is read with.
#include "common/fnv1a.hpp"

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

TEST(Fnv1a, SixtyFourBitKnownAnswers) {
  EXPECT_EQ(fnv1a64(bytes_of("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(bytes_of("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(bytes_of("foobar")), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ThirtyTwoBitKnownAnswers) {
  EXPECT_EQ(fnv1a32(bytes_of("")), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32(bytes_of("a")), 0xe40c292cu);
  EXPECT_EQ(fnv1a32(bytes_of("foobar")), 0xbf9cf968u);
}

TEST(Fnv1a, TextAndByteOverloadsAgree) {
  for (const std::string_view text : {"", "a", "shard-0-vnode-17"})
    EXPECT_EQ(fnv1a64(text), fnv1a64(bytes_of(text))) << text;
}

TEST(Fnv1a, ChainedCallsHashTheConcatenation) {
  EXPECT_EQ(fnv1a64(bytes_of("bar"), fnv1a64(bytes_of("foo"))),
            fnv1a64(bytes_of("foobar")));
  EXPECT_EQ(fnv1a32(bytes_of("bar"), fnv1a32(bytes_of("foo"))),
            fnv1a32(bytes_of("foobar")));
}

TEST(Fnv1a, FusedStepEqualsTheTwoSeparateHashes) {
  std::vector<std::uint8_t> data(517);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const std::span<const std::uint8_t> all(data);
  for (const std::size_t n : {0u, 1u, 10u, 300u, 517u}) {
    const Fnv1aLanes lanes = fnv1a_fused(all.first(n));
    EXPECT_EQ(lanes.h64, fnv1a64(all.first(n))) << n;
    EXPECT_EQ(lanes.h32, fnv1a32(all.first(n))) << n;
  }
  // From a non-initial state, as a reader continues after a prefix.
  const Fnv1aLanes start{fnv1a64(all.first(22)), kFnv1a32Offset};
  const Fnv1aLanes lanes = fnv1a_fused(all.subspan(22), start);
  EXPECT_EQ(lanes.h64, fnv1a64(all));
  EXPECT_EQ(lanes.h32, fnv1a32(all.subspan(22)));
}

}  // namespace
}  // namespace appclass::common
