// Crash-recovery acceptance: a child process ingests snapshots while
// write-ahead logging them, is SIGKILLed at an arbitrary offset, and the
// parent recovers from disk into state bit-identical to a process that
// never died — at several distinct kill offsets, with and without a
// mid-stream checkpoint, under each fsync policy's documented loss bound,
// and across the upgrade from an `appclass-wal v1` log to v2 appends.
#include "persist/recovery.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core_test_util.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"
#include "wal_segment_fixture.hpp"

namespace appclass::persist {
namespace {

/// Small knobs so window/debounce state is non-trivial by snapshot ~10.
constexpr core::OnlineOptions kOptions = {.sampling_interval_s = 1,
                                          .window = 6,
                                          .stability = 2,
                                          .min_coverage = 0.5};

/// Deterministic cross-process stream: both the child (pre-kill) and the
/// parent (reference run) must construct the identical snapshots.
std::vector<metrics::Snapshot> make_stream(std::size_t n) {
  linalg::Rng rng(99);
  std::vector<metrics::Snapshot> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = core::testing::synthetic_snapshot(
        core::class_from_index((i / 7) % core::kClassCount), rng,
        static_cast<metrics::SimTime>(i));
    s.node_ip = i % 3 == 0 ? "10.0.0.2" : "10.0.0.1";
    out.push_back(std::move(s));
  }
  return out;
}

/// Canonical byte image of a classifier's full online state.
std::string state_image(const core::OnlineClassifier& online) {
  CheckpointData data;
  data.options = online.options();
  data.online = online.export_state();
  return encode_checkpoint(data);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pipeline_.train(core::testing::synthetic_training());
    char tmpl[] = "/tmp/appclass_recover_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void ingest(core::OnlineClassifier& online,
              const metrics::Snapshot& snapshot) {
    online.ingest(snapshot, pipeline_.classify(snapshot));
  }

  /// Forks a child that WAL-appends + ingests exactly `kill_at`
  /// snapshots (checkpointing after `checkpoint_at` when non-zero), then
  /// SIGKILLs itself mid-flight. Returns once the kill is confirmed.
  void run_child_until_kill(std::size_t kill_at, std::size_t checkpoint_at,
                            WalOptions wal_options) {
    const auto snapshots = make_stream(kill_at);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: no gtest assertions, no return — only SIGKILL.
      core::OnlineClassifier online(pipeline_, kOptions);
      WalWriter wal(dir_ + "/wal", wal_options, 0);
      for (std::size_t i = 0; i < kill_at; ++i) {
        wal.append(snapshots[i]);
        online.ingest(snapshots[i], pipeline_.classify(snapshots[i]));
        if (checkpoint_at != 0 && i + 1 == checkpoint_at) {
          wal.sync();
          CheckpointData data;
          data.wal_next = i + 1;
          data.options = online.options();
          data.online = online.export_state();
          write_checkpoint(dir_ + "/checkpoints", data);
        }
      }
      ::raise(SIGKILL);
      ::_exit(127);  // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  }

  /// The invariant under fsync=always: recovered state is bit-identical
  /// to an uninterrupted run over the same prefix.
  void expect_bit_identical_recovery(std::size_t kill_at,
                                     std::size_t checkpoint_at) {
    run_child_until_kill(kill_at, checkpoint_at,
                         {.fsync = FsyncPolicy::kAlways});

    core::OnlineClassifier recovered(pipeline_, kOptions);
    const RecoveryReport report = recover(dir_, pipeline_, recovered);
    EXPECT_EQ(report.checkpoint_loaded, checkpoint_at != 0);
    EXPECT_EQ(report.wal_next_seq, kill_at);

    core::OnlineClassifier reference(pipeline_, kOptions);
    const auto snapshots = make_stream(kill_at);
    for (const auto& s : snapshots) ingest(reference, s);
    EXPECT_EQ(state_image(recovered), state_image(reference));

    // And the recovered classifier keeps classifying identically.
    const auto tail = make_stream(kill_at + 10);
    for (std::size_t i = kill_at; i < tail.size(); ++i) {
      ingest(recovered, tail[i]);
      ingest(reference, tail[i]);
    }
    EXPECT_EQ(state_image(recovered), state_image(reference));
  }

  core::ClassificationPipeline pipeline_;
  std::string dir_;
};

TEST_F(RecoveryTest, SigkillAtOffset7RecoversBitIdentical) {
  expect_bit_identical_recovery(7, 0);
}

TEST_F(RecoveryTest, SigkillAtOffset23RecoversBitIdentical) {
  expect_bit_identical_recovery(23, 0);
}

TEST_F(RecoveryTest, SigkillAtOffset41RecoversBitIdentical) {
  expect_bit_identical_recovery(41, 0);
}

TEST_F(RecoveryTest, CheckpointPlusWalTailRecoversBitIdentical) {
  // Mid-stream checkpoint: recovery must load it and replay only the
  // tail, landing on the same bytes as the full uninterrupted run.
  expect_bit_identical_recovery(31, 16);
}

TEST_F(RecoveryTest, IntervalFsyncLossIsBoundedBySyncInterval) {
  constexpr std::size_t kKillAt = 23;
  constexpr std::size_t kSyncEvery = 5;
  run_child_until_kill(
      kKillAt, 0,
      {.fsync = FsyncPolicy::kInterval, .sync_every = kSyncEvery});

  core::OnlineClassifier recovered(pipeline_, kOptions);
  const RecoveryReport report = recover(dir_, pipeline_, recovered);
  // At most sync_every records vanish with the user-space buffer; the
  // durable prefix replays completely.
  EXPECT_GE(report.wal_next_seq, kKillAt - kSyncEvery);
  EXPECT_LE(report.wal_next_seq, kKillAt);

  core::OnlineClassifier reference(pipeline_, kOptions);
  const auto snapshots = make_stream(kKillAt);
  for (std::size_t i = 0; i < report.wal_next_seq; ++i)
    ingest(reference, snapshots[i]);
  EXPECT_EQ(state_image(recovered), state_image(reference));
}

TEST_F(RecoveryTest, ColdStartIsClean) {
  core::OnlineClassifier online(pipeline_, kOptions);
  const RecoveryReport report = recover(dir_, pipeline_, online);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(report.wal_next_seq, 0u);
}

TEST_F(RecoveryTest, RefusesCheckpointWithMismatchedOptions) {
  {
    core::OnlineClassifier online(pipeline_, kOptions);
    for (const auto& s : make_stream(8)) ingest(online, s);
    CheckpointData data;
    data.wal_next = 8;
    data.options = kOptions;
    data.online = online.export_state();
    write_checkpoint(dir_ + "/checkpoints", data);
  }
  core::OnlineOptions other = kOptions;
  other.window = kOptions.window + 1;
  core::OnlineClassifier online(pipeline_, other);
  EXPECT_THROW(recover(dir_, pipeline_, online), std::runtime_error);
}

TEST_F(RecoveryTest, SecondCrashAfterRecoveryStillRecovers) {
  // Crash, recover, serve a bit more (new WAL writer resumes numbering),
  // crash again, recover again: numbering and state stay consistent.
  run_child_until_kill(13, 0, {.fsync = FsyncPolicy::kAlways});

  core::OnlineClassifier mid(pipeline_, kOptions);
  const RecoveryReport first = recover(dir_, pipeline_, mid);
  ASSERT_EQ(first.wal_next_seq, 13u);

  const auto tail = make_stream(20);
  {
    WalWriter wal(dir_ + "/wal", {.fsync = FsyncPolicy::kAlways},
                  first.wal_next_seq);
    for (std::size_t i = 13; i < 20; ++i) {
      wal.append(tail[i]);
      ingest(mid, tail[i]);
    }
  }

  core::OnlineClassifier recovered(pipeline_, kOptions);
  const RecoveryReport second = recover(dir_, pipeline_, recovered);
  EXPECT_EQ(second.wal_next_seq, 20u);

  core::OnlineClassifier reference(pipeline_, kOptions);
  for (const auto& s : tail) ingest(reference, s);
  EXPECT_EQ(state_image(recovered), state_image(reference));
}

TEST_F(RecoveryTest, V1TailThenV2AppendsSurviveSigkillBitIdentical) {
  // A state dir an `appclass-wal v1` writer left: a checkpoint at 16 and
  // a v1 WAL through seq 24. A child recovers it, resumes the log (now
  // v2) at seq 25, ingests through seq 36 and is SIGKILLed; recovery
  // then crosses from the v1 segment into the v2 one.
  constexpr std::size_t kCheckpointAt = 16;
  constexpr std::size_t kV1End = 25;
  constexpr std::size_t kKillAt = 37;
  const auto snapshots = make_stream(kKillAt);
  {
    core::OnlineClassifier online(pipeline_, kOptions);
    for (std::size_t i = 0; i < kCheckpointAt; ++i)
      ingest(online, snapshots[i]);
    CheckpointData data;
    data.wal_next = kCheckpointAt;
    data.options = online.options();
    data.online = online.export_state();
    write_checkpoint(dir_ + "/checkpoints", data);
  }
  testing::write_wal_segment(
      dir_ + "/wal", 0,
      testing::wal_segment(
          1, 0, {snapshots.begin(), snapshots.begin() + kV1End}));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest assertions, no return — only SIGKILL.
    core::OnlineClassifier online(pipeline_, kOptions);
    const RecoveryReport report = recover(dir_, pipeline_, online);
    WalWriter wal(dir_ + "/wal", {.fsync = FsyncPolicy::kAlways},
                  report.wal_next_seq);
    for (std::size_t i = report.wal_next_seq; i < kKillAt; ++i) {
      wal.append(snapshots[i]);
      ingest(online, snapshots[i]);
    }
    ::raise(SIGKILL);
    ::_exit(127);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const auto segments = wal_segments(dir_ + "/wal");
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(common::read_file_or_throw(segments[0]).substr(0, 16),
            "appclass-wal v1\n");
  EXPECT_EQ(common::read_file_or_throw(segments[1]).substr(0, 16),
            "appclass-wal v2\n");

  core::OnlineClassifier recovered(pipeline_, kOptions);
  const RecoveryReport report = recover(dir_, pipeline_, recovered);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_FALSE(report.wal_truncated);
  EXPECT_EQ(report.replayed, kKillAt - kCheckpointAt);
  EXPECT_EQ(report.wal_next_seq, kKillAt);

  core::OnlineClassifier reference(pipeline_, kOptions);
  for (const auto& s : snapshots) ingest(reference, s);
  EXPECT_EQ(state_image(recovered), state_image(reference));
}

}  // namespace
}  // namespace appclass::persist
