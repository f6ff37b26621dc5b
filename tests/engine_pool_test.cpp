// Thread-pool and execution-context semantics, plus the concurrency
// stress cases the TSan CI job runs: nested parallel_for, many small
// jobs racing for the same claim counters, concurrent callers sharing one
// pool, and concurrent online streams pushing into a FleetStream while it
// drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "counting_allocator.hpp"
#include "engine/context.hpp"
#include "engine/fleet.hpp"
#include "engine/thread_pool.hpp"
#include "monitor/bus.hpp"
#include "obs/metrics.hpp"

namespace appclass {
namespace {

TEST(EngineThreadPool, RunsEveryIndexExactlyOnce) {
  engine::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> seen(1000);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(EngineThreadPool, ZeroResolvesToHardwareConcurrency) {
  engine::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(EngineContext, SerialContextRunsInlineOnCallerThread) {
  const auto ctx = engine::ExecutionContext::serial();
  EXPECT_FALSE(ctx->pooled());
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  ctx->for_each(ran.size(),
                [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(EngineThreadPool, NestedParallelForDoesNotDeadlock) {
  engine::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(EngineThreadPool, PropagatesFirstException) {
  engine::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

TEST(EngineThreadPool, ManySmallJobsStress) {
  engine::ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(17, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(total.load(), 200L * (16 * 17 / 2));
}

TEST(EngineContext, ShardBoundariesDependOnlyOnCountAndGrain) {
  const auto serial = engine::ExecutionContext::serial();
  const auto pooled = engine::ExecutionContext::make(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{257},
                              std::size_t{1000}}) {
    std::vector<std::pair<std::size_t, std::size_t>> serial_shards;
    serial->for_shards(n, 256, [&](std::size_t b, std::size_t e, std::size_t) {
      serial_shards.emplace_back(b, e);
    });
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> pooled_shards;
    pooled->for_shards(n, 256, [&](std::size_t b, std::size_t e, std::size_t) {
      const std::lock_guard lock(mutex);
      pooled_shards.emplace_back(b, e);
    });
    std::sort(pooled_shards.begin(), pooled_shards.end());
    EXPECT_EQ(serial_shards, pooled_shards) << "n=" << n;
    // Shards must tile [0, n) without gap or overlap.
    std::size_t covered = 0;
    for (const auto& [b, e] : serial_shards) {
      EXPECT_EQ(b, covered);
      EXPECT_LT(b, e);
      covered = e;
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(EngineContext, MakeZeroUsesHardwareConcurrency) {
  const auto ctx = engine::ExecutionContext::make(0);
  EXPECT_GE(ctx->parallelism(), 1u);
}

TEST(EngineThreadPool, CountsJobsAndJobWaits) {
  const auto jobs_before = [] {
    return obs::MetricsRegistry::global()
        .counter("appclass_engine_jobs_total")
        .value();
  };
  obs::Histogram& wait =
      obs::MetricsRegistry::global().histogram("appclass_engine_job_wait_seconds");

  engine::ThreadPool pool(2);
  const std::uint64_t jobs0 = jobs_before();
  const std::uint64_t waits0 = wait.count();
  pool.parallel_for(8, [](std::size_t) {});
  // One job per parallel_for; one wait observation per claimed task.
  EXPECT_EQ(jobs_before(), jobs0 + 1);
  EXPECT_EQ(wait.count(), waits0 + 8);
}

TEST(EngineThreadPool, QueueDepthGaugeDrainsToZero) {
  engine::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
  // parallel_for returns only after every task has been claimed, and no
  // other job is live, so the submitted-but-unclaimed gauge reads zero.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .gauge("appclass_engine_queue_depth")
                .value(),
            0.0);
}

TEST(EngineThreadPool, ConcurrentCallersEachRunEveryIndexOnce) {
  // Four external callers share one pool and every task nests a small
  // job, so outer and inner jobs of all callers race for the same
  // workers.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kJobs = 100;
  constexpr std::size_t kTasks = 257;
  constexpr std::size_t kInner = 3;
  engine::ThreadPool pool(3);
  std::vector<std::atomic<int>> outer(kCallers * kJobs * kTasks);
  std::vector<std::atomic<int>> inner(outer.size() * kInner);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t j = 0; j < kJobs; ++j) {
        pool.parallel_for(kTasks, [&, c, j](std::size_t i) {
          const std::size_t slot = (c * kJobs + j) * kTasks + i;
          outer[slot].fetch_add(1);
          pool.parallel_for(kInner, [&, slot](std::size_t k) {
            inner[slot * kInner + k].fetch_add(1);
          });
        });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  const auto not_once = [](const std::vector<std::atomic<int>>& runs) {
    return std::count_if(runs.begin(), runs.end(), [](const auto& r) {
      return r.load() != 1;
    });
  };
  EXPECT_EQ(not_once(outer), 0);
  EXPECT_EQ(not_once(inner), 0);
}

TEST(EngineThreadPool, ParallelForAllocationsDoNotGrowWithTaskCount) {
  // A job's bookkeeping is one claim counter, whatever its task count.
  engine::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  };
  pool.parallel_for(64, fn);  // warm-up: metric registration, job list
  std::vector<std::uint64_t> per_job;
  for (const std::size_t count :
       {std::size_t{8}, std::size_t{2000}, std::size_t{20000}}) {
    const std::uint64_t before = allocations();
    pool.parallel_for(count, fn);
    per_job.push_back(allocations() - before);
  }
  EXPECT_EQ(total.load(), 64u + 8u + 2000u + 20000u);
  EXPECT_EQ(per_job[1], per_job[0]);
  EXPECT_EQ(per_job[2], per_job[0]);
}

TEST(EngineContext, PooledForShardsAllocatesLikeOneParallelFor) {
  // A pooled for_shards call costs the job record parallel_for makes and
  // nothing more: its shard closure fits std::function's inline buffer.
  engine::ThreadPool pool(4);
  const engine::ExecutionContext context(4);
  std::atomic<std::size_t> shards{0};
  std::atomic<std::size_t> tasks{0};
  const engine::ExecutionContext::ShardFn shard_fn =
      [&](std::size_t, std::size_t, std::size_t) {
        shards.fetch_add(1, std::memory_order_relaxed);
      };
  const std::function<void(std::size_t)> task_fn = [&](std::size_t) {
    tasks.fetch_add(1, std::memory_order_relaxed);
  };
  context.for_shards(4096, 256, shard_fn);  // warm-up: metric registration
  pool.parallel_for(16, task_fn);

  const std::uint64_t before_shards = allocations();
  context.for_shards(4096, 256, shard_fn);
  const std::uint64_t shard_allocations = allocations() - before_shards;
  const std::uint64_t before_tasks = allocations();
  pool.parallel_for(16, task_fn);
  const std::uint64_t task_allocations = allocations() - before_tasks;

  EXPECT_EQ(shards.load(), 32u);
  EXPECT_EQ(tasks.load(), 32u);
  EXPECT_EQ(shard_allocations, task_allocations);
}

TEST(EngineFleet, ConcurrentPushersAndDrainerAreRaceFree) {
  // Many producer threads announce interleaved node streams onto a bus
  // the stream is attached to, while the consumer drains concurrently —
  // the TSan job's main quarry.
  static const core::ClassificationPipeline pipeline = [] {
    core::PipelineOptions options;
    options.parallelism = 4;
    return core::make_trained_pipeline(options);
  }();

  monitor::MetricBus bus;
  engine::FleetStream stream(pipeline);
  stream.attach(bus);

  const auto& pools = core::collect_training_pools();
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    producers.emplace_back([&, p] {
      for (const auto& snapshot : pools[p].pool.snapshots())
        bus.announce(snapshot);
      finished.fetch_add(1);
    });
  }
  // Drain concurrently with the producers, then once more after they are
  // all done to sweep the tail.
  std::size_t drained = 0;
  while (finished.load() < producers.size()) drained += stream.drain();
  for (auto& t : producers) t.join();
  drained += stream.drain();
  stream.detach();

  std::size_t expected = 0;
  for (const auto& lp : pools)
    for (const auto& snapshot : lp.pool.snapshots())
      if (snapshot.time % 5 == 0) ++expected;
  EXPECT_EQ(drained, expected);
  EXPECT_EQ(stream.online().classified_count(), expected);
  for (const auto& lp : pools)
    EXPECT_TRUE(stream.online().current_class(lp.pool.node_ip()).has_value());
}

TEST(EngineFleet, ConcurrentBatchClassifiersShareOnePipeline) {
  static const core::ClassificationPipeline pipeline = [] {
    core::PipelineOptions options;
    options.parallelism = 2;
    return core::make_trained_pipeline(options);
  }();
  const auto& pools = core::collect_training_pools();
  std::vector<metrics::DataPool> inputs;
  for (const auto& lp : pools) inputs.push_back(lp.pool);

  // Two threads running fleet batches against the same pipeline and the
  // same execution context at once.
  const engine::BatchClassifier batch(pipeline);
  std::vector<core::ClassificationResult> a, b;
  std::thread other([&] { a = batch.classify_pools(inputs); });
  b = batch.classify_pools(inputs);
  other.join();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_vector, b[i].class_vector);
    EXPECT_EQ(a[i].confidences, b[i].confidences);
  }
}

}  // namespace
}  // namespace appclass
