// Execution context: the one knob deciding serial vs pooled execution.
//
// Everything in the engine (and the pipeline above it) expresses batch
// work as *deterministically sharded loops*: the index range [0, n) is cut
// into fixed-size shards whose boundaries depend only on `n` and the
// grain — never on the thread count — and each shard writes results into
// disjoint, pre-sized slots. A serial context runs the shards in order on
// the calling thread; a pooled context hands them to a ThreadPool, whose
// threads claim the next shard index until none is left. Because shard
// boundaries and per-shard arithmetic are identical either way, results
// are bit-identical across 1, 2, or N threads; any final reduction is
// done serially over the full result vector by the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "engine/thread_pool.hpp"

namespace appclass::engine {

/// Default shard size for per-snapshot loops: big enough to amortize the
/// per-task claim and scratch lease, small enough that a single large
/// pool spreads across workers.
inline constexpr std::size_t kDefaultGrain = 256;

class ExecutionContext {
 public:
  /// parallelism <= 1: serial (no pool, zero threads spawned).
  /// parallelism == 0 is reserved by callers for "one per hardware core"
  /// and must be resolved before construction (see make()).
  explicit ExecutionContext(std::size_t parallelism);

  /// Resolves the PipelineOptions convention: 0 = hardware concurrency,
  /// 1 = serial, N = pool of N workers.
  static std::shared_ptr<ExecutionContext> make(std::size_t parallelism);

  /// The process-wide serial context (no pool); cheap to share.
  static const std::shared_ptr<ExecutionContext>& serial();

  bool pooled() const noexcept { return pool_ != nullptr; }
  std::size_t parallelism() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  /// Shard callback: fn(begin, end, shard_index) over [begin, end).
  using ShardFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Cuts [0, n) into ceil(n / grain) shards and runs `fn` once per
  /// shard — in order when serial, claimed by the pool's threads when
  /// pooled. Shard boundaries depend only on (n, grain).
  void for_shards(std::size_t n, std::size_t grain, const ShardFn& fn) const;

  /// One task per item — the outer loop over pools / nodes / streams.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) const;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace appclass::engine
