// The canonical replay and the thread entry the serving loops share
// (private to src/dist).
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/robustness.hpp"

namespace appclass::serving {

/// Starts `body` on a new thread. An exception escaping it (a WAL or
/// checkpoint I/O error) ends the process the way one on the main thread
/// ends a CLI command — "error: <what>" on stderr, exit code 1 — which
/// --supervised treats as a crash and recovers from the durable state.
std::thread spawn_loop(std::function<void()> body);

/// The canonical replay: each cycle announces kAnnouncesPerCycle
/// snapshots of every recorded canonical run, in run order, as node
/// replay_node_ip(run), through `emit`, then paces 25 ms. Single and
/// coordinator modes replay through it, so their per-node announce
/// orders match exactly.
class ReplaySource {
 public:
  /// Announces one replayed snapshot; false (stop requested) abandons
  /// the cycle and ends the replay.
  using Emit = std::function<bool(metrics::Snapshot&)>;
  /// Records the canonical runs. `on_finished` runs on the replay
  /// thread once the last of `cycles` (> 0) cycles is announced.
  ReplaySource(long long cycles, Emit emit,
               std::function<void()> on_finished = {});
  ~ReplaySource() { stop(); }

  void start();
  /// Ends the replay after the cycle in flight and joins. Idempotent.
  void stop();
  long long cycles_done() const noexcept {
    return cycles_done_.load(std::memory_order_acquire);
  }
  /// Every requested cycle announced (never for an endless replay).
  bool finished() const noexcept {
    return cycles_ > 0 && cycles_done() >= cycles_;
  }

 private:
  void loop();

  long long cycles_;
  Emit emit_;
  std::function<void()> on_finished_;
  std::vector<core::RecordedRun> runs_;
  std::atomic<long long> cycles_done_{0};
  std::atomic<bool> halt_{false};
  std::thread thread_;
};

}  // namespace appclass::serving
