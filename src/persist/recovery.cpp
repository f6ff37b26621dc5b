#include "persist/recovery.hpp"

#include <chrono>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "persist/wal.hpp"

namespace appclass::persist {
namespace {

struct RecoveryMetrics {
  obs::Counter& recoveries = obs::MetricsRegistry::global().counter(
      "appclass_recoveries_total");
  obs::Counter& replayed = obs::MetricsRegistry::global().counter(
      "appclass_recovery_replayed_total");
  obs::Counter& corrupt_checkpoints = obs::MetricsRegistry::global().counter(
      "appclass_recovery_corrupt_checkpoints_total");
  obs::Gauge& duration = obs::MetricsRegistry::global().gauge(
      "appclass_recovery_duration_seconds");
};

RecoveryMetrics& recovery_metrics() {
  static RecoveryMetrics metrics;
  return metrics;
}

bool same_options(const core::OnlineOptions& a, const core::OnlineOptions& b) {
  return a.sampling_interval_s == b.sampling_interval_s &&
         a.window == b.window && a.stability == b.stability &&
         a.min_coverage == b.min_coverage;
}

}  // namespace

RecoveryReport recover(const std::string& state_dir,
                       const core::ClassificationPipeline& pipeline,
                       core::OnlineClassifier& online,
                       core::ApplicationDatabase* db) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryMetrics& rm = recovery_metrics();
  RecoveryReport report;

  if (const auto checkpoint = load_latest_checkpoint(state_dir + "/checkpoints")) {
    if (!same_options(checkpoint->data.options, online.options()))
      throw std::runtime_error(
          "recovery: checkpoint " + checkpoint->path +
          " was written under different OnlineOptions than the running "
          "classifier; refusing to mix incomparable state");
    online.import_state(checkpoint->data.online);
    if (db != nullptr && !checkpoint->data.appdb_csv.empty())
      *db = core::ApplicationDatabase::from_csv(checkpoint->data.appdb_csv);
    report.checkpoint_loaded = true;
    report.checkpoint_wal_next = checkpoint->data.wal_next;
    report.corrupt_checkpoints = checkpoint->corrupt_skipped;
    rm.corrupt_checkpoints.inc(checkpoint->corrupt_skipped);
  }

  // Replay the tail through the drain's own routine, one record at a
  // time: classify (with health evidence when an aggregator is attached)
  // then serial ingest in sequence order. The WAL holds only grid-aligned
  // accepted snapshots, so every record ingests; ingest() still aborts on
  // an off-grid one.
  report.wal_next_seq = report.checkpoint_wal_next;
  const bool detailed = online.health() != nullptr;
  core::SnapshotBatch batch;
  auto scratch = pipeline.acquire_scratch();
  const WalScan scan = replay_wal(
      state_dir + "/wal", report.checkpoint_wal_next,
      [&](const WalRecord& record) {
        pipeline.begin_snapshot_batch(batch, 1, detailed);
        pipeline.classify_snapshot_into(record.snapshot, batch, 0, *scratch);
        online.ingest(record.snapshot, batch, 0);
        report.wal_next_seq = record.seq + 1;
      });
  report.replayed = scan.records;
  report.wal_truncated = scan.truncated_tail;

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rm.recoveries.inc();
  rm.replayed.inc(scan.records);
  rm.duration.set(report.seconds);
  APPCLASS_LOG_INFO("recovery.done",
                    {"checkpoint", report.checkpoint_loaded},
                    {"checkpoint_wal_next", report.checkpoint_wal_next},
                    {"replayed", report.replayed},
                    {"truncated", report.wal_truncated},
                    {"seconds", report.seconds});
  return report;
}

}  // namespace appclass::persist
