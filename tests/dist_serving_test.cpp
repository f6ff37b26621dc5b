// Serving-API tests: per-mode flag parsing of the unified ServeOptions
// surface and the CLI's one integer grammar, deterministic composition
// text, the shard-merge identity (merge of disjoint per-shard texts ==
// the single-process text), and the same identity end to end on an
// in-process 1+2 fleet.
#include "dist/serving.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core_test_util.hpp"
#include "dist/http.hpp"

namespace appclass::serving {
namespace {

core::ClassificationPipeline trained_pipeline() {
  core::ClassificationPipeline pipeline;
  pipeline.train(core::testing::synthetic_training());
  return pipeline;
}

/// Feeds `count` grid-aligned snapshots of one class into a classifier
/// under `node_ip` (per-node streams are independent, so feeding nodes
/// in any interleave yields the same per-node state).
void feed_node(core::OnlineClassifier& online,
               const core::ClassificationPipeline& pipeline,
               const std::string& node_ip, core::ApplicationClass cls,
               std::size_t count, std::uint64_t seed) {
  linalg::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    metrics::Snapshot s = core::testing::synthetic_snapshot(
        cls, rng, static_cast<metrics::SimTime>(5 * (i + 1)));
    s.node_ip = node_ip;
    online.ingest(s, pipeline.classify(s));
  }
}

TEST(DistServing, ParseDefaultsToSingleMode) {
  const ParseResult result = parse_serve_args("model.txt", {});
  ASSERT_TRUE(result.options.has_value());
  EXPECT_EQ(result.options->mode, ServeMode::kSingle);
  EXPECT_EQ(result.options->model_path, "model.txt");
  EXPECT_EQ(result.options->port, 9464);
  EXPECT_TRUE(result.options->workers.empty());
}

TEST(DistServing, ParseWorkerAndCoordinatorModes) {
  const ParseResult worker = parse_serve_args(
      "m", {"--mode=worker", "--ingest-port=9301", "--state-dir=/tmp/w0"});
  ASSERT_TRUE(worker.options.has_value());
  EXPECT_EQ(worker.options->mode, ServeMode::kWorker);
  EXPECT_EQ(worker.options->ingest_port, 9301);
  EXPECT_EQ(worker.options->state_dir, "/tmp/w0");

  const ParseResult coord = parse_serve_args(
      "m", {"--mode=coordinator", "--workers=9201:9301,9202:9302",
            "--cycles=4"});
  ASSERT_TRUE(coord.options.has_value());
  EXPECT_EQ(coord.options->mode, ServeMode::kCoordinator);
  ASSERT_EQ(coord.options->workers.size(), 2u);
  EXPECT_EQ(coord.options->workers[0].scrape_port, 9201);
  EXPECT_EQ(coord.options->workers[0].ingest_port, 9301);
  EXPECT_EQ(coord.options->workers[1].scrape_port, 9202);
  EXPECT_EQ(coord.options->workers[1].ingest_port, 9302);
  EXPECT_EQ(coord.options->cycles, 4);
}

TEST(DistServing, ParseRejectsInvalidModeCombinations) {
  // Usage errors return empty options with exit code 2, never a silent
  // ignore of a flag that does not apply to the mode.
  const std::vector<std::vector<std::string>> invalid = {
      {"--mode=cluster"},                          // unknown mode
      {"--workers=9201:9301"},                     // workers w/o coordinator
      {"--mode=worker", "--workers=9201:9301"},    // workers on a worker
      {"--mode=worker", "--cycles=3"},             // cycles on a worker
      {"--mode=coordinator"},                      // coordinator w/o workers
      {"--mode=coordinator", "--workers=9201:9301",
       "--state-dir=/tmp/x"},                      // stateful coordinator
      {"--ingest-port=9301"},                      // ingest port on single
      {"--workers=9201"},                          // malformed endpoint
      {"--mode=coordinator", "--workers=9201:banana"},
      {"--mode=worker", "--ingest-port=99999"},    // port out of range
      {"--cycles=-1"},
  };
  for (const auto& flags : invalid) {
    const ParseResult result = parse_serve_args("m", flags);
    EXPECT_FALSE(result.options.has_value()) << flags.front();
    EXPECT_EQ(result.exit_code, 2) << flags.front();
  }
}

TEST(DistServing, ParseRejectsNonDigitNumericFlags) {
  // Numeric flag values are digits-only: strtoll-style acceptance of
  // leading whitespace, signs, or trailing garbage ("--port= 80",
  // "--port=+80", "--cycles=1e3") silently parsed the wrong number —
  // every value here is a non-negative count/port, so reject outright.
  const std::vector<std::vector<std::string>> invalid = {
      {"--port= 80"},
      {"--port=+80"},
      {"--port=-0"},
      {"--port=80 "},
      {"--duration=1e3"},
      {"--cycles=0x4"},
      {"--max-backlog=  7"},
      {"--sync-every=+1"},
      {"--checkpoint-every=2\n"},
      {"--drift-window=64kb"},
      {"--port=99999999999999999999"},  // longer than any valid value
  };
  for (const auto& flags : invalid) {
    const ParseResult result = parse_serve_args("m", flags);
    EXPECT_FALSE(result.options.has_value()) << "'" << flags.front() << "'";
    EXPECT_EQ(result.exit_code, 2) << "'" << flags.front() << "'";
  }
  // Plain digit strings still parse.
  const ParseResult ok = parse_serve_args("m", {"--port=8080"});
  ASSERT_TRUE(ok.options.has_value());
  EXPECT_EQ(ok.options->port, 8080);
}

/// Exit code of the built CLI run with `args` (shell words), or -1 when
/// it did not exit normally.
int cli_exit_code(const std::string& args) {
  const int status = std::system(
      (std::string(APPCLASS_CLI_PATH) + " " + args + " >/dev/null 2>&1")
          .c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DistServing, CliRejectsNonDigitIntegerFlags) {
  // The global and chaos integer flags share the serve flags' grammar:
  // strtoll read "--threads=+4" and "--seed=' 7'" as valid numbers.
  const std::vector<std::string> invalid = {
      "--threads=+4 apps",
      "'--threads= 4' apps",
      "--threads=-1 apps",
      "--threads=4x apps",
      "--stats-every=+5 apps",
      "--stats-every=0 apps",
      "'--stats-every=5 ' apps",
      "chaos /dev/null '--seed= 7'",
      "chaos /dev/null --seed=+7",
      "chaos /dev/null --seed=0x7",
  };
  for (const auto& args : invalid)
    EXPECT_EQ(cli_exit_code(args), 2) << args;
  // Plain digit strings still parse.
  EXPECT_EQ(cli_exit_code("--threads=4 --stats-every=5 apps"), 0);
}

TEST(DistServing, ParseKeepsLegacySingleModeFlags) {
  const ParseResult result = parse_serve_args(
      "m", {"--port=9001", "--duration=3", "--drift-window=64",
            "--state-dir=/tmp/s", "--fsync=interval", "--sync-every=8",
            "--checkpoint-every=2", "--max-backlog=100", "--supervised"});
  ASSERT_TRUE(result.options.has_value());
  EXPECT_EQ(result.options->port, 9001);
  EXPECT_EQ(result.options->duration_s, 3);
  EXPECT_EQ(result.options->drift_window, 64);
  EXPECT_EQ(result.options->wal.fsync, persist::FsyncPolicy::kInterval);
  EXPECT_EQ(result.options->wal.sync_every, 8u);
  EXPECT_EQ(result.options->checkpoint_every, 2);
  EXPECT_EQ(result.options->max_backlog, 100);
  EXPECT_TRUE(result.options->supervised);
}

TEST(DistServing, ReplayNodeIpIsPerRun) {
  EXPECT_EQ(replay_node_ip(0), "10.0.0.1");
  EXPECT_EQ(replay_node_ip(3), "10.0.3.1");
}

TEST(DistServing, CompositionTextIsDeterministic) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline), b(pipeline);
  for (auto* online : {&a, &b}) {
    feed_node(*online, pipeline, "10.0.0.1", core::ApplicationClass::kCpu,
              20, 11);
    feed_node(*online, pipeline, "10.0.1.1", core::ApplicationClass::kIo,
              20, 12);
  }
  const std::string text = composition_text(a);
  EXPECT_EQ(text, composition_text(b));
  EXPECT_EQ(text.rfind("appclass-composition v1\n", 0), 0u);
  EXPECT_NE(text.find("node 10.0.0.1 "), std::string::npos);
  EXPECT_NE(text.find("node 10.0.1.1 "), std::string::npos);
}

TEST(DistServing, MergeOfDisjointShardsEqualsTheCombinedText) {
  // The identity the coordinator's /composition rests on: per-node state
  // is independent, so two shard classifiers covering disjoint node sets
  // merge into exactly the text one classifier over all nodes renders.
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier shard0(pipeline), shard1(pipeline),
      combined(pipeline);
  const struct {
    const char* ip;
    core::ApplicationClass cls;
    std::uint64_t seed;
  } nodes[] = {
      {"10.0.0.1", core::ApplicationClass::kCpu, 21},
      {"10.0.1.1", core::ApplicationClass::kIo, 22},
      {"10.0.2.1", core::ApplicationClass::kNetwork, 23},
      {"10.0.3.1", core::ApplicationClass::kMemory, 24},
      {"10.0.4.1", core::ApplicationClass::kIdle, 25},
  };
  for (std::size_t i = 0; i < std::size(nodes); ++i) {
    core::OnlineClassifier& shard = (i % 2 == 0) ? shard0 : shard1;
    feed_node(shard, pipeline, nodes[i].ip, nodes[i].cls, 15,
              nodes[i].seed);
    feed_node(combined, pipeline, nodes[i].ip, nodes[i].cls, 15,
              nodes[i].seed);
  }
  EXPECT_EQ(
      merge_composition_texts({composition_text(shard0),
                               composition_text(shard1)}),
      composition_text(combined));
  // Merge order cannot matter either.
  EXPECT_EQ(
      merge_composition_texts({composition_text(shard1),
                               composition_text(shard0)}),
      composition_text(combined));
}

TEST(DistServing, MergeSumsTheCounters) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline), b(pipeline);
  feed_node(a, pipeline, "10.0.0.1", core::ApplicationClass::kCpu, 10, 31);
  feed_node(b, pipeline, "10.0.1.1", core::ApplicationClass::kIo, 7, 32);
  const std::string merged =
      merge_composition_texts({composition_text(a), composition_text(b)});
  const std::size_t expected =
      a.classified_count() + b.classified_count();
  EXPECT_NE(
      merged.find("classified " + std::to_string(expected) + "\n"),
      std::string::npos)
      << merged;
}

TEST(DistServing, MergeRejectsDuplicateNodesAndGarbage) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier a(pipeline);
  feed_node(a, pipeline, "10.0.0.1", core::ApplicationClass::kCpu, 10, 41);
  const std::string text = composition_text(a);
  // The same node reported by two shards means the shard map and fleet
  // disagree — merging would double-count, so it must throw.
  EXPECT_THROW(merge_composition_texts({text, text}), std::runtime_error);
  EXPECT_THROW(merge_composition_texts({"not a composition\n"}),
               std::runtime_error);
  EXPECT_THROW(merge_composition_texts({"appclass-composition v1\n"
                                        "classified x\n"
                                        "abstained 0\n"}),
               std::runtime_error);
}

TEST(DistServing, MergeOfEmptyShardsIsAnEmptyComposition) {
  const auto pipeline = trained_pipeline();
  core::OnlineClassifier empty(pipeline);
  EXPECT_EQ(merge_composition_texts(
                {composition_text(empty), composition_text(empty)}),
            composition_text(empty));
}

/// Polls `path` on a local scrape port until its body contains `needle`.
bool wait_for(std::uint16_t port, const char* path, const char* needle) {
  for (int i = 0; i < 1200; ++i) {
    const auto body = dist::http_get("127.0.0.1", port, path);
    if (body && body->find(needle) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST(DistServing, InProcessFleetCompositionMatchesSingleProcess) {
  // The CI topology smoke's byte identity, in one process without fork:
  // a single-mode node and a coordinator over two worker nodes replay
  // the same cycles on ephemeral ports, each node with its own state dir.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "appclass_fleet_XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ServeOptions base;
  base.model_path = dir + "/model.txt";
  base.port = 0;
  base.cycles = 8;
  core::save_pipeline_file(core::make_trained_pipeline(), base.model_path);

  ServeOptions single = base;
  single.state_dir = dir + "/single";
  const auto single_node = make_node_server(single);
  ASSERT_TRUE(single_node->start());

  ServeOptions coordinated = base;
  coordinated.mode = ServeMode::kCoordinator;
  coordinated.fleet_scrape_every_ms = 100;
  std::vector<std::unique_ptr<Component>> workers;
  for (int i = 0; i < 2; ++i) {
    ServeOptions worker = base;
    worker.mode = ServeMode::kWorker;
    worker.cycles = 0;
    worker.state_dir = dir + "/worker" + std::to_string(i);
    workers.push_back(make_node_server(worker));
    ASSERT_TRUE(workers.back()->start());
    coordinated.workers.push_back({.scrape_port = workers.back()->port(),
                                   .ingest_port =
                                       workers.back()->ingest_port()});
  }
  const auto coordinator = make_coordinator(coordinated);
  ASSERT_TRUE(coordinator->start());

  ASSERT_TRUE(wait_for(single_node->port(), "/replay", "\"complete\":true"));
  ASSERT_TRUE(wait_for(coordinator->port(), "/replay", "\"complete\":true"));
  const auto expected =
      dist::http_get("127.0.0.1", single_node->port(), "/composition");
  const auto merged =
      dist::http_get("127.0.0.1", coordinator->port(), "/composition");
  ASSERT_TRUE(expected && merged);
  EXPECT_EQ(*merged, *expected);
  EXPECT_NE(expected->find("\nnode 10.0.4.1 "), std::string::npos);
  // Both shards carry nodes, so the identity exercises a real merge.
  for (const auto& worker : workers) {
    const auto part =
        dist::http_get("127.0.0.1", worker->port(), "/composition");
    ASSERT_TRUE(part);
    EXPECT_NE(part->find("\nnode "), std::string::npos);
  }

  coordinator->stop();
  for (const auto& worker : workers) worker->stop();
  single_node->stop();
  EXPECT_EQ(coordinator->port(), 0);
  EXPECT_EQ(workers[0]->port(), 0);
  EXPECT_EQ(single_node->port(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace appclass::serving
