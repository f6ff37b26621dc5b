#include "engine/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appclass::engine {
namespace {

struct FleetMetrics {
  obs::Gauge& backlog =
      obs::MetricsRegistry::global().gauge("appclass_fleet_backlog");
  obs::Counter& drained = obs::MetricsRegistry::global().counter(
      "appclass_fleet_drained_total");
  obs::Counter& batch_pools = obs::MetricsRegistry::global().counter(
      "appclass_fleet_batch_pools_total");
  // Backpressure telemetry: is ingest keeping up with the fleet?
  obs::Counter& dropped = obs::MetricsRegistry::global().counter(
      "appclass_fleet_dropped_total");
  obs::Counter& overwritten = obs::MetricsRegistry::global().counter(
      "appclass_fleet_overwritten_total");
  obs::Gauge& backlog_peak =
      obs::MetricsRegistry::global().gauge("appclass_fleet_backlog_peak");
  // Allocation telemetry: backlog-ring growth events and current slot
  // capacity. A steady-state workload must leave the counter flat.
  obs::Counter& ring_grows = obs::MetricsRegistry::global().counter(
      "appclass_fleet_ring_grows_total");
  obs::Gauge& ring_capacity =
      obs::MetricsRegistry::global().gauge("appclass_fleet_ring_capacity");
  obs::Gauge& drain_rate = obs::MetricsRegistry::global().gauge(
      "appclass_fleet_drain_snapshots_per_second");
  obs::Histogram& drain_seconds = obs::stage_histogram("fleet_drain");
  obs::Histogram& drain_batch = obs::MetricsRegistry::global().histogram(
      "appclass_fleet_drain_batch_size", {},
      {1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0});
};

FleetMetrics& fleet_metrics() {
  static FleetMetrics metrics;
  return metrics;
}

}  // namespace

std::vector<core::ClassificationResult> BatchClassifier::classify_pools(
    const std::vector<metrics::DataPool>& pools) const {
  APPCLASS_EXPECTS(pipeline_.trained());
  std::vector<core::ClassificationResult> results(pools.size());
  obs::TraceSpan span("batch_classify");
  if (span.recording()) span.add_attr({"pools", pools.size()});
  // One task per pool; classify() shards further on the same context
  // (nested parallel_for is cooperative, so this never deadlocks).
  pipeline_.context()->for_each(pools.size(), [&](std::size_t p) {
    results[p] = pipeline_.classify(pools[p]);
  });
  fleet_metrics().batch_pools.inc(pools.size());
  return results;
}

FleetStream::FleetStream(const core::ClassificationPipeline& pipeline,
                         core::OnlineOptions options, std::size_t max_backlog,
                         OverflowPolicy policy)
    : pipeline_(pipeline),
      online_(pipeline, options),
      max_backlog_(max_backlog),
      policy_(policy) {}

FleetStream::~FleetStream() { detach(); }

void FleetStream::set_ingest_hook(IngestHook hook) {
  const std::lock_guard lock(mutex_);
  // Overwriting a logged-but-not-yet-ingested snapshot would leave WAL
  // entries the online state never saw — the two features are mutually
  // exclusive by contract.
  APPCLASS_EXPECTS(hook == nullptr ||
                   policy_ != OverflowPolicy::kOverwriteOldest);
  ingest_hook_ = std::move(hook);
  // The horizon describes the new hook's log; sequences of a previous
  // hook must not leak into the next checkpoint's wal_next claim.
  ingested_wal_horizon_ = 0;
}

std::uint64_t FleetStream::ingested_wal_horizon() const {
  const std::lock_guard lock(mutex_);
  return ingested_wal_horizon_;
}

bool FleetStream::push(const metrics::Snapshot& snapshot) {
  if (!online_.on_grid(snapshot)) return true;
  FleetMetrics& fm = fleet_metrics();
  const std::lock_guard lock(mutex_);
  if (max_backlog_ > 0 && pending_.size() >= max_backlog_) {
    if (policy_ == OverflowPolicy::kOverwriteOldest) {
      // Freshest-data-wins: retire the oldest buffered snapshot in
      // place. The slot's payload is reused; nothing is allocated.
      SnapshotRing::Slot& slot = pending_.displace_oldest();
      slot.snapshot = snapshot;
      slot.seq = SnapshotRing::kNoSeq;
      ++overwritten_;
      fm.overwritten.inc();
      return true;
    }
    // Drop-on-full: losing one snapshot degrades one node's coverage for
    // one grid slot (the online layer is built for exactly that), while
    // an unbounded buffer under sustained overload degrades everything.
    const auto now = std::chrono::steady_clock::now();
    // WARN once per overload episode: the first drop ever, or the first
    // after 10 s without one. A sustained storm stays on the counters.
    if (dropped_ == 0 || now - last_drop_ > std::chrono::seconds(10)) {
      APPCLASS_LOG_WARN("fleet.backpressure_drop",
                        {"node", snapshot.node_ip},
                        {"backlog", pending_.size()},
                        {"dropped_total", dropped_ + 1});
    }
    last_drop_ = now;
    ++dropped_;
    fm.dropped.inc();
    return false;
  }
  const std::size_t capacity_before = pending_.capacity();
  SnapshotRing::Slot& slot = pending_.append();
  // Assigning into the warmed slot reuses the previous occupant's string
  // capacity — the only allocations here are ring growth, counted below.
  slot.snapshot = snapshot;
  // The hook runs after the slot is claimed but under the same lock, so
  // log order == buffer order == ingest order.
  slot.seq = ingest_hook_ ? ingest_hook_(snapshot) : SnapshotRing::kNoSeq;
  if (pending_.capacity() != capacity_before) {
    fm.ring_grows.inc();
    fm.ring_capacity.set(static_cast<double>(pending_.capacity()));
  }
  if (pending_.size() > backlog_peak_) {
    backlog_peak_ = pending_.size();
    fm.backlog_peak.set(static_cast<double>(backlog_peak_));
  }
  // set(), not add(): the exact depth is in hand under the lock, and a
  // plain store beats the add() CAS loop on this per-snapshot path.
  fm.backlog.set(static_cast<double>(pending_.size()));
  return true;
}

std::size_t FleetStream::backlog() const {
  const std::lock_guard lock(mutex_);
  return pending_.size();
}

std::size_t FleetStream::backlog_peak() const {
  const std::lock_guard lock(mutex_);
  return backlog_peak_;
}

std::size_t FleetStream::dropped() const {
  const std::lock_guard lock(mutex_);
  return dropped_;
}

std::size_t FleetStream::overwritten() const {
  const std::lock_guard lock(mutex_);
  return overwritten_;
}

std::uint64_t FleetStream::ring_grows() const {
  const std::lock_guard lock(mutex_);
  return pending_.grows() + drained_.grows();
}

std::size_t FleetStream::drain() {
  // Double-buffer swap: the drainer hands its (already-consumed) ring
  // back and takes the pending one — O(1) under the lock, and the warmed
  // slots circulate between the two rings instead of being reallocated.
  drained_.clear();
  FleetMetrics& fm = fleet_metrics();
  {
    const std::lock_guard lock(mutex_);
    pending_.swap(drained_);
    // Published while the lock still serializes us against pushers, so
    // the gauge never goes stale-high after a swap.
    fm.backlog.set(0.0);
  }
  const std::size_t n = drained_.size();
  if (n == 0) return 0;
  fm.drain_batch.observe(static_cast<double>(n));

  obs::TraceSpan span("fleet_drain", &fm.drain_seconds);
  if (span.recording()) span.add_attr({"snapshots", n});

  // Parallel classification through the pipeline's batched SoA path
  // (each shard leases its own query scratch and writes disjoint batch
  // slots), then strictly serial ingestion in push order — the per-node
  // windows and debounce see exactly the sequence observe() would have.
  // With a health aggregator attached the batch keeps the full vote
  // evidence per snapshot; the labels come from the same routine either
  // way.
  const bool detailed = online_.health() != nullptr;
  pipeline_.begin_snapshot_batch(batch_, n, detailed);
  // The lambda captures only `this`, so its std::function fits the
  // small-object buffer and a serial drain allocates nothing here.
  pipeline_.context()->for_shards(
      n, kDefaultGrain,
      [this](std::size_t begin, std::size_t end, std::size_t) {
        auto scratch = pipeline_.acquire_scratch();
        for (std::size_t i = begin; i < end; ++i)
          pipeline_.classify_snapshot_into(drained_.at(i).snapshot, batch_,
                                           i, *scratch);
      });
  for (std::size_t i = 0; i < n; ++i)
    online_.ingest(drained_.at(i).snapshot, batch_, i);

  // Ingest horizon: one past the newest hook-logged sequence we just
  // ingested. Snapshots accepted without a hook carry kNoSeq and are
  // skipped, so a hook attached mid-stream sees an exact horizon. The
  // max keeps it monotonic for the lifetime of one hook.
  for (std::size_t i = n; i-- > 0;) {
    const std::uint64_t seq = drained_.at(i).seq;
    if (seq == SnapshotRing::kNoSeq) continue;
    const std::lock_guard lock(mutex_);
    ingested_wal_horizon_ = std::max(ingested_wal_horizon_, seq + 1);
    break;
  }

  const double seconds = span.stop();
  if (seconds > 0.0) fm.drain_rate.set(static_cast<double>(n) / seconds);
  fm.drained.inc(n);
  APPCLASS_LOG_DEBUG("fleet.drain", {"snapshots", n}, {"seconds", seconds},
                     {"parallelism", pipeline_.context()->parallelism()});
  return n;
}

void FleetStream::attach(monitor::MetricBus& bus) {
  detach();
  {
    // New subscription, new backpressure episode: the peak should answer
    // "how far behind did *this* attachment get".
    const std::lock_guard lock(mutex_);
    backlog_peak_ = 0;
    fleet_metrics().backlog_peak.set(0.0);
  }
  bus_ = &bus;
  subscription_ = bus.subscribe(
      [this](const metrics::Snapshot& snapshot) { push(snapshot); });
}

void FleetStream::detach() {
  if (bus_ == nullptr) return;
  bus_->unsubscribe(subscription_);
  bus_ = nullptr;
  subscription_ = 0;
}

}  // namespace appclass::engine
