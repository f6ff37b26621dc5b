#include "persist/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "common/fs.hpp"
#include "common/sealed_text.hpp"
#include "common/seq_file.hpp"
#include "obs/log.hpp"

namespace appclass::persist {
namespace {

constexpr std::string_view kMagic = "appclass-checkpoint v1";
constexpr common::SeqFileName kFileName{"checkpoint-", ".ckpt"};

core::ApplicationClass parse_class(common::TextReader& in,
                                   const std::string& name) {
  const auto label = core::class_from_string(name);
  if (!label) in.fail("unknown class '" + name + "'");
  return *label;
}

core::ApplicationClass read_class(common::TextReader& in) {
  return parse_class(in, in.word("truncated class label"));
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
  return common::seal_text(os.str());
}

CheckpointData decode_checkpoint(const std::string& text) {
  constexpr std::string_view kContext = "checkpoint deserialization";
  if (text.empty()) common::fail_parse(kContext, "empty checkpoint file");
  if (!text.starts_with(kMagic))
    common::fail_parse(kContext, "bad magic/version header");
  common::check_seal(text, kContext);

  common::TextReader in(text, kContext);
  in.expect_header(kMagic);

  CheckpointData data;
  in.expect_tag("wal-next");
  data.wal_next = in.read_u64();

  in.expect_tag("options");
  data.options.sampling_interval_s = static_cast<int>(in.read_ll());
  data.options.window = in.read_size();
  data.options.stability = in.read_size();
  data.options.min_coverage = in.read_double();

  in.expect_tag("online");
  data.online.classified = in.read_size();
  data.online.abstained = in.read_size();
  const std::size_t node_count = in.read_size();
  data.online.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    in.expect_tag("node");
    core::OnlineNodeImage node;
    node.node_ip = in.word("truncated node id");
    node.first_time = in.read_ll();
    node.coverage = in.read_double();
    const std::string stable = in.word("truncated stable class");
    if (stable != "-") node.stable_class = parse_class(in, stable);
    node.candidate = read_class(in);
    node.candidate_streak = in.read_size();
    const std::size_t window = in.read_size();
    node.window.reserve(window);
    for (std::size_t w = 0; w < window; ++w) {
      const metrics::SimTime time = in.read_ll();
      node.window.emplace_back(time, read_class(in));
    }
    data.online.nodes.push_back(std::move(node));
  }

  in.expect_tag("appdb");
  data.appdb_csv = in.payload(in.read_size(), "truncated appdb payload");
  return data;
}

std::vector<std::string> checkpoint_files(const std::string& dir) {
  return kFileName.list(dir);
}

std::string write_checkpoint(const std::string& dir,
                             const CheckpointData& data, std::size_t keep) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    common::throw_errno("cannot create checkpoint directory:", dir);
  const std::string path = dir + "/" + kFileName.format(data.wal_next);
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
