// The shared encodings in src/common: big-endian fields, 16-digit hex,
// decimal counts, sequence-numbered file names and checksum-sealed text,
// each at its edges (0 and UINT64_MAX, wrong widths, wrong case).
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/sealed_text.hpp"
#include "common/seq_file.hpp"

namespace appclass::common {
namespace {

TEST(CommonBytes, BigEndianFieldsInBothContainers) {
  std::vector<std::uint8_t> bytes;
  put_be(bytes, std::uint16_t{0x0102});
  put_be(bytes, std::uint32_t{0x03040506});
  put_be(bytes, std::uint64_t{0x0708090a0b0c0d0eULL});
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                              11, 12, 13, 14}));
  EXPECT_EQ(get_be<std::uint16_t>(bytes.data()), 0x0102u);
  EXPECT_EQ(get_be<std::uint32_t>(bytes.data() + 2), 0x03040506u);
  EXPECT_EQ(get_be<std::uint64_t>(bytes.data() + 6), 0x0708090a0b0c0d0eULL);

  std::string text = "x";
  put_be(text, std::uint32_t{0x41424344});
  EXPECT_EQ(text, "xABCD");
}

TEST(CommonBytes, BigEndianEdgesRoundTrip) {
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{UINT64_MAX}}) {
    std::uint8_t buffer[8];
    store_be(buffer, v);
    EXPECT_EQ(get_be<std::uint64_t>(buffer), v);
  }
  std::uint8_t buffer[4];
  store_be(buffer, std::uint32_t{UINT32_MAX});
  EXPECT_EQ(get_be<std::uint32_t>(buffer), UINT32_MAX);
  store_be(buffer, std::uint32_t{0x01});
  EXPECT_EQ(buffer[3], 0x01);
  EXPECT_EQ(buffer[0], 0x00);
}

TEST(CommonBytes, Hex64IsSixteenLowerCaseDigits) {
  EXPECT_EQ(to_hex64(0), "0000000000000000");
  EXPECT_EQ(to_hex64(42), "000000000000002a");
  EXPECT_EQ(to_hex64(UINT64_MAX), "ffffffffffffffff");
  EXPECT_EQ(parse_hex64("0000000000000000"), 0u);
  EXPECT_EQ(parse_hex64("ffffffffffffffff"), UINT64_MAX);
  EXPECT_EQ(parse_hex64(to_hex64(0x0123456789abcdefULL)),
            0x0123456789abcdefULL);
  EXPECT_FALSE(parse_hex64("000000000000002A"));    // upper case
  EXPECT_FALSE(parse_hex64("00000000000002a"));     // 15 digits
  EXPECT_FALSE(parse_hex64("00000000000000002a"));  // 18 digits
  EXPECT_FALSE(parse_hex64("000000000000002g"));
  EXPECT_FALSE(parse_hex64(""));
}

TEST(CommonBytes, CountIsDigitsOnly) {
  EXPECT_EQ(parse_count("0"), 0);
  EXPECT_EQ(parse_count("123"), 123);
  EXPECT_EQ(parse_count("999999999999999999"), 999999999999999999LL);
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "1a", "0x1",
                          "1000000000000000000"})
    EXPECT_FALSE(parse_count(bad)) << bad;
}

constexpr SeqFileName kName{"wal-", ".seg"};

TEST(CommonBytes, SeqFileNamesFormatAndParse) {
  EXPECT_EQ(kName.format(0), "wal-0000000000000000.seg");
  EXPECT_EQ(kName.format(42), "wal-000000000000002a.seg");
  EXPECT_EQ(kName.format(UINT64_MAX), "wal-ffffffffffffffff.seg");
  EXPECT_EQ(kName.parse("wal-0000000000000000.seg"), 0u);
  EXPECT_EQ(kName.parse("wal-ffffffffffffffff.seg"), UINT64_MAX);
  EXPECT_EQ(kName.parse(kName.format(42)), 42u);
}

TEST(CommonBytes, SeqFileNamesRejectEveryOtherName) {
  for (const char* bad :
       {"wal-000000000000002A.seg",    // upper-case digit
        "wal-00000000000002a.seg",     // 15 digits
        "wal-00000000000000002a.seg",  // 18 digits
        "wax-000000000000002a.seg",    // wrong prefix
        "checkpoint-000000000000002a.ckpt",
        "wal-000000000000002a.seg.tmp",  // wrong suffix
        "wal-000000000000002a.ckpt", "wal-.seg", ""})
    EXPECT_FALSE(kName.parse(bad)) << bad;
}

TEST(CommonBytes, SeqFileListingIsSortedAndFiltered) {
  char tmpl[] = "/tmp/appclass_seq_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  for (const std::string& name :
       {kName.format(UINT64_MAX), kName.format(0x100), kName.format(0),
        std::string("wal-000000000000002A.seg"), std::string("notes.txt"),
        kName.format(7) + ".tmp"})
    std::ofstream(dir + "/" + name) << "x";
  EXPECT_EQ(kName.list(dir),
            (std::vector<std::string>{dir + "/" + kName.format(0),
                                      dir + "/" + kName.format(0x100),
                                      dir + "/" + kName.format(UINT64_MAX)}));
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(kName.list(dir).empty());
}

std::string failure_of(const std::string& text) {
  try {
    check_seal(text, "ctx");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CommonBytes, SealedTextRoundTrips) {
  for (const std::string body : {"", "a b\nc\n"}) {
    const std::string sealed = seal_text(body);
    EXPECT_EQ(sealed.substr(0, body.size()), body);
    EXPECT_EQ(sealed.substr(body.size()),
              "checksum " + to_hex64(fnv1a64(body)) + "\n");
    EXPECT_EQ(failure_of(sealed), "");
  }
}

TEST(CommonBytes, SealFailuresAreDistinct) {
  const std::string sealed = seal_text("line one\nline two\n");
  EXPECT_EQ(failure_of("line one\n"),
            "ctx: missing checksum footer (truncated file?)");
  EXPECT_NE(failure_of(sealed.substr(0, sealed.size() - 4))
                .find("ctx: truncated checksum footer"),
            std::string::npos);
  std::string flipped = sealed;
  flipped[2] ^= 1;
  EXPECT_NE(failure_of(flipped).find("ctx: checksum mismatch"),
            std::string::npos);
}

TEST(CommonBytes, TextReaderNamesItsFormat) {
  TextReader in("format v1\ntag 12 -3 2.5 word", "model");
  in.expect_header("format v1");
  in.expect_tag("tag");
  EXPECT_EQ(in.read_size(), 12u);
  EXPECT_EQ(in.read_ll(), -3);
  EXPECT_DOUBLE_EQ(in.read_double(), 2.5);
  EXPECT_EQ(in.word("missing word"), "word");
  EXPECT_EQ(in.word(), "");
  try {
    in.read_u64();
    FAIL() << "read past the end";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "model: truncated integer");
  }
  EXPECT_THROW(TextReader("format v1 \n", "ckpt").expect_header("format v1"),
               std::runtime_error);
  TextReader negative("-1", "ckpt");
  EXPECT_THROW(negative.read_size(), std::runtime_error);
  EXPECT_THROW(TextReader("", "ckpt").word("no word"), std::runtime_error);
}

TEST(CommonBytes, TextReaderPayloadIsByteCounted) {
  TextReader in("blob 5 \na\nb c\nrest", "ckpt");
  in.expect_tag("blob");
  EXPECT_EQ(in.payload(in.read_size(), "cut"), "a\nb c");
  EXPECT_EQ(in.word(), "rest");
  TextReader cut("blob 9\nshort", "ckpt");
  cut.expect_tag("blob");
  EXPECT_THROW(cut.payload(cut.read_size(), "cut"), std::runtime_error);
}

}  // namespace
}  // namespace appclass::common
