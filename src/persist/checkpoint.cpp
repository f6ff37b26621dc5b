#include "persist/checkpoint.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "common/fnv1a.hpp"
#include "common/fs.hpp"
#include "obs/log.hpp"

namespace appclass::persist {
namespace {

constexpr std::string_view kMagic = "appclass-checkpoint v1";
constexpr std::string_view kChecksumTag = "checksum ";
constexpr std::string_view kFilePrefix = "checkpoint-";
constexpr std::string_view kFileSuffix = ".ckpt";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint deserialization: " + what);
}

std::string to_hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
  return out;
}

void expect_tag(std::istream& is, const std::string& tag) {
  std::string got;
  if (!(is >> got) || got != tag) fail("expected '" + tag + "'");
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) fail("truncated number");
  return v;
}

long long read_ll(std::istream& is) {
  long long v = 0;
  if (!(is >> v)) fail("truncated integer");
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  if (!(is >> v)) fail("truncated integer");
  return v;
}

std::size_t read_size(std::istream& is) {
  const long long v = read_ll(is);
  if (v < 0) fail("negative count");
  return static_cast<std::size_t>(v);
}

core::ApplicationClass read_class(std::istream& is) {
  std::string name;
  if (!(is >> name)) fail("truncated class label");
  const auto label = core::class_from_string(name);
  if (!label) fail("unknown class '" + name + "'");
  return *label;
}

/// wal_next encoded in a checkpoint file name; nullopt for other files.
std::optional<std::uint64_t> file_wal_next(std::string_view name) {
  if (name.size() != kFilePrefix.size() + 16 + kFileSuffix.size())
    return std::nullopt;
  if (name.substr(0, kFilePrefix.size()) != kFilePrefix) return std::nullopt;
  if (name.substr(name.size() - kFileSuffix.size()) != kFileSuffix)
    return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : name.substr(kFilePrefix.size(), 16)) {
    if (c >= '0' && c <= '9') seq = (seq << 4) | static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      seq = (seq << 4) | static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
  }
  return seq;
}

}  // namespace

std::string encode_checkpoint(const CheckpointData& data) {
  std::ostringstream os;
  os.precision(17);
  os << kMagic << '\n';
  os << "wal-next " << data.wal_next << '\n';
  os << "options " << data.options.sampling_interval_s << ' '
     << data.options.window << ' ' << data.options.stability << ' '
     << data.options.min_coverage << '\n';
  os << "online " << data.online.classified << ' ' << data.online.abstained
     << ' ' << data.online.nodes.size() << '\n';
  for (const auto& node : data.online.nodes) {
    os << "node " << node.node_ip << ' ' << node.first_time << ' '
       << node.coverage << ' '
       << (node.stable_class ? core::to_string(*node.stable_class)
                             : std::string_view("-"))
       << ' ' << core::to_string(node.candidate) << ' '
       << node.candidate_streak << ' ' << node.window.size();
    for (const auto& [time, label] : node.window)
      os << ' ' << time << ' ' << core::to_string(label);
    os << '\n';
  }
  // Byte-count framing: the CSV is opaque payload, newlines included.
  os << "appdb " << data.appdb_csv.size() << '\n' << data.appdb_csv << '\n';
  std::string body = os.str();
  body.append(kChecksumTag);
  body.append(to_hex64(common::fnv1a64(
      std::string_view(body.data(), body.size() - kChecksumTag.size()))));
  body.push_back('\n');
  return body;
}

CheckpointData decode_checkpoint(const std::string& text) {
  std::string_view view = text;
  if (view.empty()) fail("empty checkpoint file");
  if (view.rfind(kMagic, 0) != 0) fail("bad magic/version header");

  const std::size_t footer = view.rfind(kChecksumTag);
  if (footer == std::string_view::npos)
    fail("missing checksum footer (truncated file?)");
  std::string_view recorded = view.substr(footer + kChecksumTag.size());
  while (!recorded.empty() &&
         (recorded.back() == '\n' || recorded.back() == '\r' ||
          recorded.back() == ' '))
    recorded.remove_suffix(1);
  if (recorded.size() != 16 ||
      recorded.find_first_not_of("0123456789abcdef") != std::string_view::npos)
    fail("truncated checksum footer (found '" + std::string(recorded) + "')");
  const std::string computed =
      to_hex64(common::fnv1a64(view.substr(0, footer)));
  if (recorded != computed)
    fail("checksum mismatch: checkpoint is corrupt (expected " + computed +
         ", found '" + std::string(recorded) + "')");

  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    fail("bad magic/version header");

  CheckpointData data;
  expect_tag(is, "wal-next");
  data.wal_next = read_u64(is);

  expect_tag(is, "options");
  data.options.sampling_interval_s = static_cast<int>(read_ll(is));
  data.options.window = read_size(is);
  data.options.stability = read_size(is);
  data.options.min_coverage = read_double(is);

  expect_tag(is, "online");
  data.online.classified = read_size(is);
  data.online.abstained = read_size(is);
  const std::size_t node_count = read_size(is);
  data.online.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    expect_tag(is, "node");
    core::OnlineNodeImage node;
    if (!(is >> node.node_ip)) fail("truncated node id");
    node.first_time = read_ll(is);
    node.coverage = read_double(is);
    std::string stable;
    if (!(is >> stable)) fail("truncated stable class");
    if (stable != "-") {
      const auto label = core::class_from_string(stable);
      if (!label) fail("unknown class '" + stable + "'");
      node.stable_class = *label;
    }
    node.candidate = read_class(is);
    node.candidate_streak = read_size(is);
    const std::size_t window = read_size(is);
    node.window.reserve(window);
    for (std::size_t w = 0; w < window; ++w) {
      const metrics::SimTime time = read_ll(is);
      node.window.emplace_back(time, read_class(is));
    }
    data.online.nodes.push_back(std::move(node));
  }

  expect_tag(is, "appdb");
  const std::size_t appdb_bytes = read_size(is);
  if (!std::getline(is, line)) fail("truncated appdb section");
  data.appdb_csv.resize(appdb_bytes);
  if (appdb_bytes > 0 &&
      !is.read(data.appdb_csv.data(),
               static_cast<std::streamsize>(appdb_bytes)))
    fail("truncated appdb payload");
  return data;
}

std::vector<std::string> checkpoint_files(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    if (file_wal_next(entry->d_name)) out.push_back(dir + "/" + entry->d_name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string write_checkpoint(const std::string& dir,
                             const CheckpointData& data, std::size_t keep) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    common::throw_errno("cannot create checkpoint directory:", dir);
  char name[64];
  std::snprintf(name, sizeof name, "%.*s%016llx%.*s",
                static_cast<int>(kFilePrefix.size()), kFilePrefix.data(),
                static_cast<unsigned long long>(data.wal_next),
                static_cast<int>(kFileSuffix.size()), kFileSuffix.data());
  const std::string path = dir + "/" + name;
  common::atomic_write_file(path, encode_checkpoint(data));

  const std::vector<std::string> files = checkpoint_files(dir);
  if (files.size() > keep) {
    for (std::size_t i = 0; i + keep < files.size(); ++i)
      ::unlink(files[i].c_str());
  }
  return path;
}

std::optional<LoadedCheckpoint> load_latest_checkpoint(
    const std::string& dir) {
  const std::vector<std::string> files = checkpoint_files(dir);
  std::size_t corrupt = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      LoadedCheckpoint loaded{
          decode_checkpoint(common::read_file_or_throw(*it)), *it, corrupt};
      return loaded;
    } catch (const std::runtime_error& e) {
      ++corrupt;
      APPCLASS_LOG_WARN("checkpoint.corrupt_skipped", {"path", *it},
                        {"error", e.what()});
    }
  }
  return std::nullopt;
}

}  // namespace appclass::persist
