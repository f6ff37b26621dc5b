// perfbench: the repository benchmark binary.
//
//   perfbench --workload <stream_fleet|batch_catalog|durable_fleet>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--corrupt-reference]
//
// Prints one JSON result line last on stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separate traced run with
// --trace 1. Spans of the traced run are written to
// <workdir>/../traces/<workload>-<seed>.tsv. run.py builds this binary
// and supplies --workdir.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <stream_fleet|batch_catalog|"
               "durable_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--corrupt-reference]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (value == nullptr) {
      usage();
      return 2;
    }
    ++i;
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args.trace = std::string(value) == "1";
    else if (flag == "--workdir") args.workdir = value;
    else {
      usage();
      return 2;
    }
  }
  if (args.workdir.empty() || !(args.seconds > 0.0)) {
    usage();
    return 2;
  }

  Result result(args.trace);
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "stream_fleet") run_stream_fleet(args, result);
    else if (args.workload == "batch_catalog") run_batch_catalog(args, result);
    else if (args.workload == "durable_fleet") run_durable_fleet(args, result);
    else {
      usage();
      return 2;
    }
    result.set("rss_mb", peak_rss_mb());
    if (args.trace) {
      const std::filesystem::path traces =
          std::filesystem::path(args.workdir).parent_path() / "traces";
      std::filesystem::create_directories(traces);
      Tracer::instance().report(
          result, (traces / (args.workload + "-" + std::to_string(args.seed) +
                             ".tsv"))
                      .string());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  result.print();
  return 0;
}
