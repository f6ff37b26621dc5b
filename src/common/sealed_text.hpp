// Checksum-sealed text files and the token reader their parsers share.
//
// A sealed file is its body followed by one footer line,
// `checksum <16-hex FNV-1a-64 over the body>\n`; model files (v2) and
// checkpoints are sealed. check_seal() runs before any field is trusted
// and tells three failures apart: no footer (the file was cut before it),
// a footer that is not 16 hex digits (cut inside it), and a value
// mismatch (the body was damaged). Every error is thrown as
// std::runtime_error("<context>: <what>"), the context naming the format.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

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

/// Whitespace-separated token reader over a text file; a missing or
/// malformed token throws through fail_parse(context, ...).
class TextReader {
 public:
  TextReader(const std::string& text, std::string_view context)
      : in_(text), context_(context) {}

  [[noreturn]] void fail(const std::string& what) const {
    fail_parse(context_, what);
  }

  /// Fails unless the first line is exactly `header` (magic and version).
  void expect_header(std::string_view header) {
    std::string line;
    if (!std::getline(in_, line) || line != header)
      fail("bad magic/version header");
  }

  /// The next token. At end of input: fails with `missing`, or returns
  /// "" when `missing` is null.
  std::string word(const char* missing = nullptr) {
    std::string word;
    if (!(in_ >> word) && missing != nullptr) fail(missing);
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

  /// Skips the rest of the line, then reads exactly `size` raw bytes (a
  /// byte-counted payload); fails with `missing` when they are not there.
  std::string payload(std::size_t size, const char* missing) {
    std::string rest, out(size, '\0');
    if (!std::getline(in_, rest) ||
        !in_.read(out.data(), static_cast<std::streamsize>(size)))
      fail(missing);
    return out;
  }

 private:
  template <class T>
  T number(const char* missing) {
    T v{};
    if (!(in_ >> v)) fail(missing);
    return v;
  }

  std::istringstream in_;
  std::string_view context_;
};

}  // namespace appclass::common
