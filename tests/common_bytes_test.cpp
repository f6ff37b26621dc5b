// The shared encodings in src/common: big-endian fields, 16-digit hex,
// decimal counts, sequence-numbered file names and checksum-sealed text,
// each at its edges (0 and UINT64_MAX, wrong widths, wrong case), and the
// number grammar of sealed text files, bit for bit.
#include <unistd.h>

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
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

/// `v` and its bit pattern, for failure messages that must tell -0 from 0.
std::string describe(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v << " (bits " << std::hex << std::bit_cast<std::uint64_t>(v) << ')';
  return os.str();
}

TEST(CommonBytes, TextReaderReadsEveryFiniteDoubleBackBitForBit) {
  std::vector<double> values = {0.0,     -0.0,     DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                DBL_MIN, -DBL_MIN, DBL_MAX,      -DBL_MAX,
                                1.0 / 3, 0.1,      93.5,         -0.5};
  std::mt19937_64 bits(20260419);
  while (values.size() < 100'000 + 12) {
    const double v = std::bit_cast<double>(bits());
    if (std::isfinite(v)) values.push_back(v);
  }
  TextWriter out;
  out << "doubles " << values.size() << '\n';
  for (const double v : values) out << v << '\n';
  const std::string text = std::move(out).seal();

  TextReader in(text, "test");
  in.expect_tag("doubles");
  ASSERT_EQ(in.read_count(), values.size());
  for (const double v : values) {
    const double back = in.read_double();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << describe(v) << " came back as " << describe(back);
  }
  in.expect_tag("checksum");
}

TEST(CommonBytes, TextWriterSpellsDoublesAsAnOstreamAtPrecision17) {
  // The bytes of every model and checkpoint written before TextWriter
  // came from an ostringstream at precision(17); they must not move.
  std::vector<double> values = {0.0,     -0.0,     DBL_TRUE_MIN, DBL_MIN,
                                DBL_MAX, -DBL_MAX, 1.0 / 3,      1e21,
                                1e-5,    123456789012345678.0};
  std::mt19937_64 bits(7);
  std::uniform_real_distribution<double> plain(-1e6, 1e6);
  while (values.size() < 10'000) {
    // Half random bit patterns (every exponent), half everyday magnitudes.
    const double v = values.size() % 2 ? plain(bits)
                                       : std::bit_cast<double>(bits());
    if (std::isfinite(v)) values.push_back(v);
  }
  std::ostringstream reference;
  reference.precision(17);
  TextWriter out;
  for (const double v : values) {
    reference << ' ' << v;
    out << ' ' << v;
  }
  reference << ' ' << LLONG_MIN << ' ' << ULLONG_MAX << ' ' << 0 << ' '
            << std::size_t{42} << ' ' << -7;
  out << ' ' << LLONG_MIN << ' ' << ULLONG_MAX << ' ' << 0 << ' '
      << std::size_t{42} << ' ' << -7;
  EXPECT_EQ(std::move(out).seal(), seal_text(reference.str()));
}

TEST(CommonBytes, TextReaderReadsIntegerLimitsBack) {
  TextWriter out;
  out << LLONG_MIN << ' ' << LLONG_MAX << ' ' << -1LL << ' ' << 0LL << ' '
      << std::uint64_t{0} << ' ' << UINT64_MAX << ' ' << LLONG_MAX << '\n';
  const std::string text = std::move(out).seal();
  TextReader in(text, "test");
  EXPECT_EQ(in.read_ll(), LLONG_MIN);
  EXPECT_EQ(in.read_ll(), LLONG_MAX);
  EXPECT_EQ(in.read_ll(), -1);
  EXPECT_EQ(in.read_ll(), 0);
  EXPECT_EQ(in.read_u64(), 0u);
  EXPECT_EQ(in.read_u64(), UINT64_MAX);
  EXPECT_EQ(in.read_size(), static_cast<std::size_t>(LLONG_MAX));
  in.expect_tag("checksum");
}

/// The message reading `token` as a number fails with, or "" when it
/// reads.
template <class Read>
std::string rejection(std::string_view token, Read read) {
  TextReader in(token, "ctx");
  try {
    read(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CommonBytes, TextReaderRejectsFormsTheWritersNeverEmit) {
  const auto read_double = [](TextReader& in) { in.read_double(); };
  const auto read_ll = [](TextReader& in) { in.read_ll(); };
  const auto read_u64 = [](TextReader& in) { in.read_u64(); };
  for (const std::string_view token :
       {"1.5x", "+5", "+0.5", "0x10", "0x1p3", "1e400", "-1e400", "nan",
        "NaN", "-nan", "nan(1)", "inf", "-INF", "Infinity", "infinity",
        "-iNfInItY", ".", "-", "e5", "1,5"})
    EXPECT_EQ(rejection(token, read_double),
              "ctx: truncated number (found '" + std::string(token) + "')");
  for (const std::string_view token :
       {"12.5", "1e3", "+5", "0x10", "5x", "-", "9223372036854775808",
        "-9223372036854775809"})
    EXPECT_EQ(rejection(token, read_ll),
              "ctx: truncated integer (found '" + std::string(token) + "')");
  for (const std::string_view token :
       {"-1", "-0", "+5", "12.5", "0x10", "18446744073709551616"})
    EXPECT_EQ(rejection(token, read_u64),
              "ctx: truncated integer (found '" + std::string(token) + "')");
  // What the grammar does accept beyond the writers' own spelling.
  EXPECT_EQ(rejection("1E5 -0 007 1e-320", [](TextReader& in) {
              EXPECT_EQ(in.read_double(), 1e5);
              EXPECT_TRUE(std::signbit(in.read_double()));
              EXPECT_EQ(in.read_ll(), 7);
              EXPECT_EQ(in.read_double(), 1e-320);
            }),
            "");
}

TEST(CommonBytes, TextReaderBoundsCountsByTheBytesLeft) {
  TextReader fits("3 a b c", "ctx");
  EXPECT_EQ(fits.read_count(), 3u);
  EXPECT_EQ(rejection("1000000000000000 a", [](TextReader& in) {
              in.read_count();
            }),
            "ctx: count 1000000000000000 exceeds the 2 bytes left");
  // A payload longer than the text fails before anything is allocated.
  EXPECT_EQ(rejection("blob 1000000000000000\nab", [](TextReader& in) {
              in.expect_tag("blob");
              in.payload(in.read_size(), "cut");
            }),
            "ctx: cut");
}

TEST(CommonBytes, TextReaderNeverOwnsItsText) {
  static_assert(std::is_constructible_v<TextReader, const std::string&,
                                        std::string_view>);
  static_assert(
      !std::is_constructible_v<TextReader, std::string&&, std::string_view>);
  const std::string text = "alpha\tbeta\v\fgamma\r\n";
  TextReader in(text, "ctx");
  const std::string_view first = in.word();
  EXPECT_EQ(first.data(), text.data());
  EXPECT_EQ(in.word(), "beta");
  EXPECT_EQ(in.word(), "gamma");
  EXPECT_EQ(in.word(), "");
}

}  // namespace
}  // namespace appclass::common
