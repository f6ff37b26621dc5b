// Atomic, versioned checkpoints of the serving state.
//
// A checkpoint is the durable image of everything the serve loop mutates:
// the OnlineClassifier's windows/debounce/counters, the application
// database, and the WAL horizon (`wal_next` — the first log sequence NOT
// yet folded into this state). Recovery = newest valid checkpoint + a
// deterministic replay of WAL records >= wal_next.
//
// Format: line-oriented text like core/serialize.cpp, sealed by the same
// FNV-1a-64 `checksum` footer (common/sealed_text.hpp), written via
// common::atomic_write_file (temp + fsync + rename) so a crash
// mid-checkpoint leaves the previous one intact. Files are named
// `checkpoint-<16-hex wal_next>.ckpt` (common::SeqFileName); the
// newest `keep` are retained, and a corrupt newest file falls back to the
// next older (counted, warned, never fatal while any valid one remains).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/appdb.hpp"
#include "core/online.hpp"

namespace appclass::persist {

struct CheckpointData {
  /// First WAL sequence number NOT included in this state.
  std::uint64_t wal_next = 0;
  /// Options the OnlineClassifier ran under — recovery refuses a
  /// checkpoint written under different knobs (the state would not be
  /// comparable to a fresh run).
  core::OnlineOptions options;
  core::OnlineStateImage online;
  /// Application database rows (ApplicationDatabase::to_csv; may be empty).
  std::string appdb_csv;
};

/// Serializes a checkpoint (text, checksum footer included).
std::string encode_checkpoint(const CheckpointData& data);

/// Parses + verifies a checkpoint; throws std::runtime_error on a bad
/// header, checksum mismatch, truncation, or malformed field.
CheckpointData decode_checkpoint(const std::string& text);

/// Atomically writes `data` into `dir` and deletes all but the newest
/// `keep` checkpoint files. Returns the path written.
std::string write_checkpoint(const std::string& dir,
                             const CheckpointData& data, std::size_t keep = 2);

struct LoadedCheckpoint {
  CheckpointData data;
  std::string path;
  /// Newer checkpoint files that failed validation and were skipped.
  std::size_t corrupt_skipped = 0;
};

/// Loads the newest valid checkpoint in `dir` (skipping corrupt ones,
/// newest first). nullopt when none exists or none validates.
std::optional<LoadedCheckpoint> load_latest_checkpoint(const std::string& dir);

/// Paths of checkpoint files in `dir`, ascending by wal_next.
std::vector<std::string> checkpoint_files(const std::string& dir);

}  // namespace appclass::persist
