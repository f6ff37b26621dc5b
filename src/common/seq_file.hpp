// Sequence-numbered file names: `<prefix><16 lower-case hex digits><suffix>`.
//
// WAL segments (`wal-<first seq>.seg`) and checkpoints
// (`checkpoint-<wal_next>.ckpt`) are named this way. The fixed width makes
// name order equal sequence order, so a sorted directory listing is in
// sequence order. The parser is strict: any other length, an upper-case
// digit, or a foreign prefix or suffix is not a member of the family.
#pragma once

#include <dirent.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"

namespace appclass::common {

struct SeqFileName {
  std::string_view prefix;
  std::string_view suffix;

  std::string format(std::uint64_t seq) const {
    return std::string(prefix) + to_hex64(seq) + std::string(suffix);
  }

  /// The sequence number `name` encodes; nullopt for any other name.
  std::optional<std::uint64_t> parse(std::string_view name) const noexcept {
    if (name.size() != prefix.size() + 16 + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix))
      return std::nullopt;
    return parse_hex64(name.substr(prefix.size(), 16));
  }

  /// Paths (`dir/name`) of the family's files in `dir`, ascending by
  /// sequence; empty when `dir` cannot be opened.
  std::vector<std::string> list(const std::string& dir) const {
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return out;
    while (const dirent* entry = ::readdir(d))
      if (parse(entry->d_name)) out.push_back(dir + "/" + entry->d_name);
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
  }
};

}  // namespace appclass::common
