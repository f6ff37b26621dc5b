// Checkpoint format and storage: exact round trip of the online state
// image, checksum-footer corruption detection, atomic write + retention,
// and the corrupt-newest-falls-back-to-older loading rule, also for a
// resealed file whose counts no file could hold.
#include "persist/checkpoint.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/fs.hpp"
#include "common/sealed_text.hpp"

namespace appclass::persist {
namespace {

CheckpointData sample() {
  CheckpointData data;
  data.wal_next = 1234;
  data.options = {.sampling_interval_s = 2,
                  .window = 9,
                  .stability = 4,
                  .min_coverage = 0.625};
  data.online.classified = 77;
  data.online.abstained = 3;
  core::OnlineNodeImage a;
  a.node_ip = "10.0.0.1";
  a.window = {{0, core::ApplicationClass::kCpu},
              {2, core::ApplicationClass::kCpu},
              {4, core::ApplicationClass::kIo}};
  a.stable_class = core::ApplicationClass::kCpu;
  a.candidate = core::ApplicationClass::kIo;
  a.candidate_streak = 1;
  a.first_time = 0;
  a.coverage = 0.875;
  core::OnlineNodeImage b;
  b.node_ip = "10.0.0.2";
  b.stable_class = std::nullopt;  // never debounced to a stable class
  b.candidate = core::ApplicationClass::kIdle;
  b.first_time = 40;
  b.coverage = 1.0;
  data.online.nodes = {a, b};
  data.appdb_csv = "name,class\npostmark,io\n";  // embedded newlines
  return data;
}

/// Sealed `text` with its body's first `from` replaced by `to`, resealed
/// so that only the parser can catch the change.
std::string resealed(const std::string& text, std::string_view from,
                     std::string_view to) {
  std::string body = text.substr(0, text.rfind(common::kChecksumTag));
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) body.replace(at, from.size(), to);
  return common::seal_text(std::move(body));
}

void expect_equal(const CheckpointData& x, const CheckpointData& y) {
  // The encoder is deterministic, so byte equality of re-encodings is the
  // strongest practical "every field survived" check.
  EXPECT_EQ(encode_checkpoint(x), encode_checkpoint(y));
}

class CheckpointDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/appclass_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = std::string(tmpl) + "/checkpoints";
  }

  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::path(dir_).parent_path());
  }

  std::string dir_;
};

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const CheckpointData original = sample();
  const CheckpointData decoded = decode_checkpoint(encode_checkpoint(original));
  EXPECT_EQ(decoded.wal_next, 1234u);
  EXPECT_EQ(decoded.options.window, 9u);
  EXPECT_EQ(decoded.online.nodes.size(), 2u);
  EXPECT_EQ(decoded.online.nodes[0].window.size(), 3u);
  EXPECT_FALSE(decoded.online.nodes[1].stable_class.has_value());
  EXPECT_EQ(decoded.appdb_csv, original.appdb_csv);
  expect_equal(original, decoded);
}

TEST(Checkpoint, ChecksumCatchesBitFlip) {
  std::string text = encode_checkpoint(sample());
  text[text.size() / 3] ^= 0x01;
  EXPECT_THROW(
      {
        try {
          decode_checkpoint(text);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Checkpoint, TruncationIsDetected) {
  std::string text = encode_checkpoint(sample());
  text.resize(text.size() / 2);
  EXPECT_THROW(decode_checkpoint(text), std::runtime_error);
}

TEST(Checkpoint, ResealedHugeCountsAreRejected) {
  const std::string text = encode_checkpoint(sample());
  for (const auto& [from, to] :
       {std::pair<std::string_view, std::string_view>{
            "online 77 3 2", "online 77 3 1000000000000000"},
        {"io 1 3 0 cpu", "io 1 1000000000000000 0 cpu"},
        {"appdb 23", "appdb 1000000000000000"}}) {
    try {
      decode_checkpoint(resealed(text, from, to));
      FAIL() << "a huge count must not load: " << to;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).find("checkpoint deserialization: "),
                0u)
          << e.what();
    }
  }
}

TEST(Checkpoint, EmptyAndForeignFilesAreRejected) {
  EXPECT_THROW(decode_checkpoint(""), std::runtime_error);
  EXPECT_THROW(decode_checkpoint("definitely not a checkpoint\n"),
               std::runtime_error);
}

TEST_F(CheckpointDirTest, WriteLoadRoundTrip) {
  const std::string path = write_checkpoint(dir_, sample());
  EXPECT_NE(path.find("checkpoint-"), std::string::npos);
  // No temp leftovers: the write is rename-atomic.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto loaded = load_latest_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->corrupt_skipped, 0u);
  expect_equal(loaded->data, sample());
}

TEST_F(CheckpointDirTest, RetainsOnlyNewestKeep) {
  CheckpointData data = sample();
  for (std::uint64_t horizon : {10u, 20u, 30u, 40u}) {
    data.wal_next = horizon;
    write_checkpoint(dir_, data, /*keep=*/2);
  }
  const auto files = checkpoint_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  const auto loaded = load_latest_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.wal_next, 40u);
}

TEST_F(CheckpointDirTest, CorruptNewestFallsBackToOlder) {
  CheckpointData data = sample();
  data.wal_next = 10;
  write_checkpoint(dir_, data);
  data.wal_next = 20;
  const std::string newest = write_checkpoint(dir_, data);
  {
    // Simulate a torn checkpoint write that somehow landed (e.g. a
    // pre-atomic-write file from an older build): flip one byte.
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('#');
  }
  const auto loaded = load_latest_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.wal_next, 10u);
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
}

using CheckpointTest = CheckpointDirTest;

TEST_F(CheckpointTest, ResealedHugeCountFallsBackToPreviousCheckpoint) {
  // A valid seal over a node count no file could hold: the loader must
  // skip the file as corrupt instead of reserving for the count.
  CheckpointData data = sample();
  data.wal_next = 10;
  write_checkpoint(dir_, data);
  data.wal_next = 20;
  const std::string newest = write_checkpoint(dir_, data);
  common::atomic_write_file(
      newest, resealed(common::read_file_or_throw(newest), "online 77 3 2",
                       "online 0 0 1000000000000000"));
  const auto loaded = load_latest_checkpoint(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.wal_next, 10u);
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
}

TEST_F(CheckpointDirTest, EmptyDirectoryYieldsNullopt) {
  EXPECT_FALSE(load_latest_checkpoint(dir_).has_value());
  EXPECT_FALSE(load_latest_checkpoint(dir_ + "/missing").has_value());
}

}  // namespace
}  // namespace appclass::persist
