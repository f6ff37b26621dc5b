#include "engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::engine {
namespace {

using Clock = std::chrono::steady_clock;

struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("appclass_engine_queue_depth");
  obs::Counter& tasks = obs::MetricsRegistry::global().counter(
      "appclass_engine_tasks_total");
  obs::Counter& jobs = obs::MetricsRegistry::global().counter(
      "appclass_engine_jobs_total");
  obs::Histogram& job_wait = obs::MetricsRegistry::global().histogram(
      "appclass_engine_job_wait_seconds");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

}  // namespace

/// One parallel_for invocation: runners claim indices from `next` in
/// increasing order until it passes `count`. Which thread runs an index
/// is scheduling-dependent — callers rely only on every-index-runs-once.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  /// Ambient trace context captured at submission; tasks adopt it so
  /// spans opened inside them parent across the thread hop.
  obs::TraceContext trace_ctx;
  Clock::time_point submitted{};
  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::atomic<std::size_t> completed{0};
  std::mutex done_mutex;
  std::condition_variable done;
  std::exception_ptr first_exception;  // guarded by done_mutex
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::run_one(Job& job) {
  const std::size_t task = job.next.fetch_add(1);
  if (task >= job.count) return false;

  PoolMetrics& pm = pool_metrics();
  pm.queue_depth.add(-1.0);
  pm.job_wait.observe(
      std::chrono::duration<double>(Clock::now() - job.submitted).count());

  // Run the task under the submitter's trace context so any spans it
  // opens parent to the submitting span, whichever thread claimed it.
  std::optional<obs::ScopedTraceContext> adopted;
  if (job.trace_ctx.active()) adopted.emplace(job.trace_ctx);

  try {
    (*job.fn)(task);
  } catch (...) {
    std::lock_guard<std::mutex> lock(job.done_mutex);
    if (!job.first_exception) job.first_exception = std::current_exception();
  }

  if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      job.count) {
    std::lock_guard<std::mutex> lock(job.done_mutex);
    job.done.notify_all();
  }
  return true;
}

namespace {
/// See current_worker_slot(): workers claim slot worker_index + 1, every
/// other thread reports the shared caller slot 0.
thread_local std::size_t t_worker_slot = 0;
}  // namespace

std::size_t current_worker_slot() noexcept { return t_worker_slot; }

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_slot = worker_index + 1;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    std::shared_ptr<Job> job;
    for (const auto& candidate : jobs_) {
      if (candidate->next.load() < candidate->count) {
        job = candidate;
        break;
      }
    }
    if (job) {
      lock.unlock();
      while (run_one(*job)) {
      }
      lock.lock();
      continue;
    }
    if (stop_) return;
    work_ready_.wait(lock);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  PoolMetrics& pm = pool_metrics();
  pm.jobs.inc();
  pm.tasks.inc(count);
  if (count == 1) {
    // Inline execution: same thread, so the ambient trace context is
    // already in place and there is no queue wait to measure.
    fn(0);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->count = count;
  job->trace_ctx = obs::current_trace_context();
  job->submitted = Clock::now();
  pm.queue_depth.add(static_cast<double>(count));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(job);
  }
  work_ready_.notify_all();

  // Cooperative drain: the caller works its own job, so nested
  // parallel_for calls always make progress.
  while (run_one(*job)) {
  }

  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) == job->count;
    });
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
  }

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(job->done_mutex);
    error = job->first_exception;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace appclass::engine
