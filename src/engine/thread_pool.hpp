// Fixed-size worker pool whose jobs hand out task indices from one shared
// claim counter.
//
// The engine's unit of work is a *pool-sized task*: a shard of a few
// hundred snapshots, one training pool, or one node's buffered stream.
// Every job is a fixed index range [0, count) and no task adds tasks to
// its own job, so each runner — worker or caller — claims the next index
// with one atomic increment until the range is exhausted. An uneven fleet
// (one 8000-snapshot pool among fifty small ones) still balances: a
// runner that finishes early simply claims the next index.
//
// `parallel_for` is the only entry point and it is *cooperative*: the
// calling thread claims and runs tasks of its own job alongside the
// workers, so nested parallel_for calls (a pooled pipeline inside a
// pooled fleet) cannot deadlock — every caller makes progress on its own
// job even when all workers are busy elsewhere.
//
// Observability: `appclass_engine_queue_depth` gauge (tasks submitted but
// not yet claimed), `appclass_engine_tasks_total` and
// `appclass_engine_jobs_total` counters, and
// `appclass_engine_job_wait_seconds` (submission-to-claim latency per
// task).
//
// Trace propagation: parallel_for captures the caller's ambient
// obs::TraceContext into the job; every claimed task adopts it before
// running, so spans opened inside tasks — on whichever thread claims
// them — parent to the submitting span.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace appclass::engine {

/// Scratch-pool placement hint for the calling thread: pool worker i
/// reports i + 1, every non-pool thread (including cooperative callers
/// inside parallel_for) reports 0. Purely a hint — distinct threads may
/// report the same slot, so pools keyed by it must still lease slots
/// atomically; the hint just makes the common case a one-probe hit on a
/// worker-warm slot.
std::size_t current_worker_slot() noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1). `threads == 0` means one
  /// worker per hardware core.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (excluding cooperative callers).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs `fn(0) .. fn(count - 1)` across the workers and the calling
  /// thread; returns when every task has finished. Task *results* must be
  /// written to disjoint, caller-owned slots — the pool guarantees each
  /// index runs exactly once and everything written by the tasks
  /// happens-before the return, nothing about ordering. The first
  /// exception thrown by a task is rethrown here after the job drains.
  /// Safe to call from multiple threads and from inside a task.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Job;

  void worker_loop(std::size_t worker_index);
  /// Claims and runs the next index of `job`; returns false when every
  /// index has already been claimed.
  bool run_one(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;                    // guards jobs_ and stop_
  std::condition_variable work_ready_;  // workers wait here for jobs
  std::vector<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

}  // namespace appclass::engine
