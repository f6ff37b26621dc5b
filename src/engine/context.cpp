#include "engine/context.hpp"

#include <thread>

#include "common/assert.hpp"

namespace appclass::engine {

ExecutionContext::ExecutionContext(std::size_t parallelism) {
  if (parallelism > 1) pool_ = std::make_unique<ThreadPool>(parallelism);
}

std::shared_ptr<ExecutionContext> ExecutionContext::make(
    std::size_t parallelism) {
  if (parallelism == 0) {
    parallelism = std::thread::hardware_concurrency();
    if (parallelism == 0) parallelism = 1;
  }
  if (parallelism == 1) return serial();
  return std::make_shared<ExecutionContext>(parallelism);
}

const std::shared_ptr<ExecutionContext>& ExecutionContext::serial() {
  static const std::shared_ptr<ExecutionContext> context =
      std::make_shared<ExecutionContext>(1);
  return context;
}

void ExecutionContext::for_shards(std::size_t n, std::size_t grain,
                                  const ShardFn& fn) const {
  if (n == 0) return;
  APPCLASS_EXPECTS(grain >= 1);
  const std::size_t shards = (n + grain - 1) / grain;
  // One captured pointer keeps the closure inside std::function's inline
  // buffer, so a pooled call allocates only the pool's job record.
  const struct {
    std::size_t n;
    std::size_t grain;
    const ShardFn& fn;
  } loop{n, grain, fn};
  auto run_shard = [l = &loop](std::size_t s) {
    const std::size_t begin = s * l->grain;
    const std::size_t end = std::min(l->n, begin + l->grain);
    l->fn(begin, end, s);
  };
  if (!pool_) {
    for (std::size_t s = 0; s < shards; ++s) run_shard(s);
    return;
  }
  // Single shards still go through the pool so task accounting
  // (appclass_engine_tasks_total) covers every pool-backed run.
  pool_->parallel_for(shards, run_shard);
}

void ExecutionContext::for_each(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (!pool_) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->parallel_for(n, fn);
}

}  // namespace appclass::engine
