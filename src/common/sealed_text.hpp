// Checksum-sealed text files and the token reader and writer their codecs
// (the model in core/serialize.cpp, the checkpoint in
// persist/checkpoint.cpp) share.
//
// A sealed file is its body followed by one footer line,
// `checksum <16-hex FNV-1a-64 over the body>\n`; model files (v2) and
// checkpoints are sealed. check_seal() runs before any field is trusted
// and tells three failures apart: no footer (the file was cut before it),
// a footer that is not 16 hex digits (cut inside it), and a value
// mismatch (the body was damaged). Every error is thrown as
// std::runtime_error("<context>: <what>"), the context naming the format.
//
// Number grammar. TextWriter spells a double as printf's "%.17g" (17
// significant digits name every double exactly; an ostream at
// precision(17) writes the same bytes) and an integer in plain decimal.
// TextReader cuts the text into tokens at C-locale whitespace and reads
// a number with std::from_chars, which must consume the whole token, so
// every finite double and every integer comes back bit for bit. A token
// is accepted only in the form std::from_chars reads in its default
// format: an optional leading '-' (none on an unsigned integer), no '+',
// no "0x", no '.' or exponent in an integer, no trailing characters.
// Doubles must also be finite: nan, inf and infinity in any case, and
// values beyond DBL_MAX, are rejected. The writers never emit any of
// these forms.
//
// A count that sizes a container (read_count) or a byte-counted payload
// may not exceed the bytes left in the text: each counted item takes at
// least one byte, so a larger count is corrupt and fails as a parse
// error before anything is allocated for it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "common/codec.hpp"
#include "common/fnv1a.hpp"

namespace appclass::common {

inline constexpr std::string_view kChecksumTag = "checksum ";

[[noreturn]] inline void fail_parse(std::string_view context,
                                    const std::string& what) {
  throw std::runtime_error(std::string(context) + ": " + what);
}

/// `body` followed by the footer line that seals it.
inline std::string seal_text(std::string body) {
  const std::uint64_t hash = fnv1a64(body);
  body.append(kChecksumTag);
  body.append(to_hex64(hash));
  body.push_back('\n');
  return body;
}

/// Verifies the footer of sealed `text`; throws on any of the three
/// failures.
inline void check_seal(std::string_view text, std::string_view context) {
  const std::size_t footer = text.rfind(kChecksumTag);
  if (footer == std::string_view::npos)
    fail_parse(context, "missing checksum footer (truncated file?)");
  std::string_view recorded = text.substr(footer + kChecksumTag.size());
  recorded = recorded.substr(0, recorded.find_last_not_of("\n\r ") + 1);
  const std::optional<std::uint64_t> value = parse_hex64(recorded);
  if (!value)
    fail_parse(context,
               "truncated checksum footer (expected 16 hex digits, found '" +
                   std::string(recorded) + "')");
  const std::uint64_t computed = fnv1a64(text.substr(0, footer));
  if (*value != computed)
    fail_parse(context, "checksum mismatch: file is corrupt (expected " +
                            to_hex64(computed) + ", found '" +
                            std::string(recorded) + "')");
}

/// Builds the body of a sealed text file with numbers in the grammar
/// TextReader reads back (see the top of this file).
class TextWriter {
 public:
  TextWriter& operator<<(std::string_view text) {
    body_.append(text);
    return *this;
  }
  TextWriter& operator<<(char c) {
    body_.push_back(c);
    return *this;
  }
  TextWriter& operator<<(double v) {
    return number(v, std::chars_format::general, 17);
  }
  template <std::integral T>
  TextWriter& operator<<(T v) {
    return number(v);
  }

  /// The body written so far, sealed (seal_text).
  std::string seal() && { return seal_text(std::move(body_)); }

 private:
  template <class T, class... Format>
  TextWriter& number(T v, Format... format) {
    char digits[32];  // "%.17g" needs at most 24, a u64 20
    const auto end =
        std::to_chars(digits, digits + sizeof digits, v, format...).ptr;
    body_.append(digits, end);
    return *this;
  }

  std::string body_;
};

/// Whitespace-separated token cursor over a text file that the caller
/// keeps alive; a missing or malformed token throws through
/// fail_parse(context, ...).
class TextReader {
 public:
  TextReader(std::string_view text, std::string_view context) noexcept
      : at_(text.data()), end_(text.data() + text.size()),
        context_(context) {}
  TextReader(const char* text, std::string_view context) noexcept
      : TextReader(std::string_view(text), context) {}
  /// The reader points into its text, so a temporary would dangle.
  TextReader(std::string&&, std::string_view) = delete;

  [[noreturn]] void fail(const std::string& what) const {
    fail_parse(context_, what);
  }

  /// Fails unless the first line is exactly `header` (magic and version).
  void expect_header(std::string_view header) {
    const char* eol = std::find(at_, end_, '\n');
    const bool match = std::string_view(at_, eol) == header;
    at_ = eol == end_ ? eol : eol + 1;
    if (!match) fail("bad magic/version header");
  }

  /// The next token, a view into the text. At end of input: fails with
  /// `missing`, or returns "" when `missing` is null.
  std::string_view word(const char* missing = nullptr) {
    const std::string_view word = token();
    if (word.empty() && missing != nullptr) fail(missing);
    return word;
  }

  void expect_tag(std::string_view tag) {
    if (word() != tag) fail("expected '" + std::string(tag) + "'");
  }

  double read_double() { return number<double>("truncated number"); }
  long long read_ll() { return number<long long>("truncated integer"); }
  std::uint64_t read_u64() {
    return number<std::uint64_t>("truncated integer");
  }
  std::size_t read_size() {
    const long long v = read_ll();
    if (v < 0) fail("negative count");
    return static_cast<std::size_t>(v);
  }
  /// A read_size() that sizes a container of the items that follow; fails
  /// when it exceeds the bytes left (see the top of this file).
  std::size_t read_count() {
    const std::size_t n = read_size();
    if (n > left())
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(left()) + " bytes left");
    return n;
  }

  /// Skips the rest of the line, then reads exactly `size` raw bytes (a
  /// byte-counted payload); fails with `missing` when they are not there.
  std::string payload(std::size_t size, const char* missing) {
    at_ = std::find(at_, end_, '\n');
    if (at_ == end_ || size > left() - 1) fail(missing);
    const char* begin = ++at_;
    at_ += size;
    return std::string(begin, size);
  }

 private:
  static constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');  // C-locale isspace
  }

  std::size_t left() const noexcept {
    return static_cast<std::size_t>(end_ - at_);
  }

  std::string_view token() noexcept {
    while (at_ != end_ && is_space(*at_)) ++at_;
    const char* begin = at_;
    while (at_ != end_ && !is_space(*at_)) ++at_;
    return {begin, at_};
  }

  template <class T>
  T number(const char* what) {
    const std::string_view text = token();
    if (text.empty()) fail(what);
    T v{};
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    bool ok = error == std::errc() && end == text.data() + text.size();
    if constexpr (std::floating_point<T>) ok = ok && std::isfinite(v);
    if (!ok)
      fail(std::string(what) + " (found '" + std::string(text) + "')");
    return v;
  }

  const char* at_;
  const char* end_;
  std::string_view context_;
};

}  // namespace appclass::common
