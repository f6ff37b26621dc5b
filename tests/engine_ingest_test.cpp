// The streaming-ingest path's zero-allocation and overflow contracts:
// the SnapshotRing mechanics (wraparound, displacement, warm-slot reuse),
// the FleetStream overflow policies and hook-attach/horizon semantics,
// the RCU bus announce, and — the headline regression guard — an
// operator-new counter proving a warmed push→drain cycle touches the
// heap zero times, with and without model health attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core_test_util.hpp"
#include "counting_allocator.hpp"
#include "engine/fleet.hpp"
#include "engine/snapshot_ring.hpp"
#include "monitor/bus.hpp"
#include "obs/cardinality.hpp"
#include "obs/health.hpp"

namespace appclass {
namespace {

using engine::SnapshotRing;

metrics::Snapshot grid_snapshot(core::ApplicationClass cls, std::uint64_t seed,
                                metrics::SimTime t,
                                const std::string& node_ip = "10.0.0.1") {
  linalg::Rng rng(seed);
  metrics::Snapshot s = core::testing::synthetic_snapshot(cls, rng, t);
  s.node_ip = node_ip;
  return s;
}

// --- SnapshotRing mechanics ------------------------------------------------

TEST(SnapshotRingTest, AppendWrapsAndKeepsLogicalOrder) {
  SnapshotRing ring;
  ring.reserve(4);
  const std::size_t cap = ring.capacity();
  ASSERT_GE(cap, 4u);
  // Fill, drain a few, refill past the physical end: logical order must
  // survive the wraparound.
  for (std::size_t i = 0; i < cap; ++i) ring.append().seq = i;
  EXPECT_EQ(ring.size(), cap);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  // Offset the head by displacing so the logical view wraps the array:
  // the survivors shift to the front, the displaced slots re-enter as
  // the newest entries.
  for (std::size_t i = 0; i < cap; ++i) ring.append().seq = 100 + i;
  for (std::size_t i = 0; i < cap / 2; ++i)
    ring.displace_oldest().seq = 200 + i;
  ASSERT_EQ(ring.size(), cap);
  for (std::size_t i = 0; i < cap / 2; ++i)
    EXPECT_EQ(ring.at(i).seq, 100 + cap / 2 + i) << "i=" << i;
  for (std::size_t i = 0; i < cap / 2; ++i)
    EXPECT_EQ(ring.at(cap / 2 + i).seq, 200 + i) << "i=" << i;
}

TEST(SnapshotRingTest, GrowthRelinearizesLiveSlots) {
  SnapshotRing ring;
  const std::uint64_t grows_before = ring.grows();
  for (std::uint64_t i = 0; i < 100; ++i) ring.append().seq = i;
  EXPECT_EQ(ring.size(), 100u);
  EXPECT_GT(ring.grows(), grows_before);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(ring.at(i).seq, i);
}

TEST(SnapshotRingTest, DisplaceOldestReusesSlotAsNewest) {
  SnapshotRing ring;
  ring.reserve(4);
  const std::size_t cap = ring.capacity();
  for (std::uint64_t i = 0; i < cap; ++i) {
    SnapshotRing::Slot& slot = ring.append();
    slot.seq = i;
    slot.snapshot.time = static_cast<metrics::SimTime>(i);
  }
  SnapshotRing::Slot& displaced = ring.displace_oldest();
  EXPECT_EQ(displaced.seq, 0u);  // full ring: the retired slot's storage
  displaced.seq = 99;
  EXPECT_EQ(ring.size(), cap);  // ...size unchanged...
  EXPECT_EQ(ring.at(0).seq, 1u);
  EXPECT_EQ(ring.at(ring.size() - 1).seq, 99u);  // ...slot is now newest
}

TEST(SnapshotRingTest, DisplaceOnPartiallyFullRingKeepsLogicalWindow) {
  // The FleetStream case: logical size (max_backlog) below physical
  // capacity. Displacing must hand back the slot at the *newest logical
  // position*, not the retired slot's storage — assigning anywhere else
  // would leave a stale entry inside the window.
  SnapshotRing ring;
  ring.reserve(8);
  ASSERT_GT(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) ring.append().seq = i;
  for (std::uint64_t round = 0; round < 2 * ring.capacity(); ++round) {
    ring.displace_oldest().seq = 10 + round;
    ASSERT_EQ(ring.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::uint64_t expected =
          round + 1 + i < 4 ? round + 1 + i : 10 + (round + 1 + i) - 4;
      EXPECT_EQ(ring.at(i).seq, expected) << "round=" << round << " i=" << i;
    }
  }
}

TEST(SnapshotRingTest, ClearAndSwapKeepWarmedSlots) {
  SnapshotRing ring;
  ring.append().snapshot.node_ip =
      "a-node-ip-long-enough-to-defeat-small-string-optimization";
  const std::size_t cap = ring.capacity();
  ring.clear();
  EXPECT_EQ(ring.capacity(), cap);  // slots survive clear()
  // A warmed slot hands back its string capacity: re-appending and
  // assigning an equally long name must not allocate.
  const std::string name(50, 'x');
  SnapshotRing::Slot& slot = ring.append();
  const std::uint64_t before = allocations();
  slot.snapshot.node_ip = name;
  EXPECT_EQ(allocations(), before);

  SnapshotRing other;
  other.swap(ring);
  EXPECT_EQ(other.capacity(), cap);
  EXPECT_EQ(other.size(), 1u);
  EXPECT_EQ(ring.size(), 0u);
}

// --- MetricBus (RCU announce) ---------------------------------------------

TEST(BusIngestTest, AnnounceIsAllocationFree) {
  monitor::MetricBus bus;
  std::size_t seen = 0;
  bus.subscribe([&seen](const metrics::Snapshot&) { ++seen; });
  bus.subscribe([&seen](const metrics::Snapshot&) { ++seen; });
  const metrics::Snapshot snapshot =
      grid_snapshot(core::ApplicationClass::kCpu, 1, 0);
  bus.announce(snapshot);  // warm any lazy metrics singletons
  const std::uint64_t before = allocations();
  for (int i = 0; i < 100; ++i) bus.announce(snapshot);
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(seen, 202u);
}

TEST(BusIngestTest, ListenerMayUnsubscribeReentrantly) {
  monitor::MetricBus bus;
  std::size_t calls = 0;
  monitor::SubscriptionId self = 0;
  self = bus.subscribe([&](const metrics::Snapshot&) {
    ++calls;
    bus.unsubscribe(self);  // rebuilds the list while announce iterates
  });
  std::size_t other_calls = 0;
  bus.subscribe([&](const metrics::Snapshot&) { ++other_calls; });

  const metrics::Snapshot snapshot =
      grid_snapshot(core::ApplicationClass::kIdle, 2, 0);
  bus.announce(snapshot);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(other_calls, 1u);
  EXPECT_EQ(bus.listener_count(), 1u);
  bus.announce(snapshot);
  EXPECT_EQ(calls, 1u);  // unsubscribed listener no longer invoked
  EXPECT_EQ(other_calls, 2u);
}

// --- FleetStream overflow, hook, and peak semantics ------------------------

class FleetIngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new core::ClassificationPipeline();
    pipeline_->train(core::testing::synthetic_training());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  /// `count` grid-aligned snapshots (t = t0, t0+5, ...) of one class.
  static std::vector<metrics::Snapshot> stream(core::ApplicationClass cls,
                                               std::size_t count,
                                               metrics::SimTime t0 = 0) {
    std::vector<metrics::Snapshot> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(grid_snapshot(
          cls, 10 + i, t0 + static_cast<metrics::SimTime>(i) * 5));
    return out;
  }

  static core::ClassificationPipeline* pipeline_;
};

core::ClassificationPipeline* FleetIngestTest::pipeline_ = nullptr;

TEST_F(FleetIngestTest, OverwriteOldestKeepsNewestSnapshots) {
  engine::FleetStream fleet(
      *pipeline_, {}, /*max_backlog=*/4,
      engine::FleetStream::OverflowPolicy::kOverwriteOldest);
  const auto snapshots = stream(core::ApplicationClass::kCpu, 6);
  for (const auto& snapshot : snapshots) EXPECT_TRUE(fleet.push(snapshot));
  EXPECT_EQ(fleet.backlog(), 4u);
  EXPECT_EQ(fleet.overwritten(), 2u);
  EXPECT_EQ(fleet.dropped(), 0u);

  // The drain must see the 4 *newest* snapshots, in push order — the
  // classifier's window ends at the stream's last time, not the first.
  EXPECT_EQ(fleet.drain(), 4u);
  const core::OnlineStateImage state = fleet.online().export_state();
  ASSERT_EQ(state.nodes.size(), 1u);
  ASSERT_EQ(state.nodes[0].window.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(state.nodes[0].window[i].first, snapshots[2 + i].time);
}

TEST_F(FleetIngestTest, DropNewestStillRejectsOnFull) {
  engine::FleetStream fleet(*pipeline_, {}, /*max_backlog=*/2,
                            engine::FleetStream::OverflowPolicy::kDropNewest);
  const auto snapshots = stream(core::ApplicationClass::kIo, 5);
  std::size_t accepted = 0;
  for (const auto& snapshot : snapshots)
    if (fleet.push(snapshot)) ++accepted;
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(fleet.dropped(), 3u);
  EXPECT_EQ(fleet.overwritten(), 0u);
}

TEST_F(FleetIngestTest, HookAttachMidStreamAdvancesHorizonExactly) {
  engine::FleetStream fleet(*pipeline_);
  const auto snapshots = stream(core::ApplicationClass::kNetwork, 6);

  // Pre-hook pushes carry no sequence and never advance the horizon.
  fleet.push(snapshots[0]);
  fleet.push(snapshots[1]);
  EXPECT_EQ(fleet.drain(), 2u);
  EXPECT_EQ(fleet.ingested_wal_horizon(), 0u);

  std::uint64_t next_seq = 7;  // a recovered WAL resumes mid-sequence
  fleet.set_ingest_hook(
      [&next_seq](const metrics::Snapshot&) { return next_seq++; });
  fleet.push(snapshots[2]);
  fleet.push(snapshots[3]);
  EXPECT_EQ(fleet.drain(), 2u);
  EXPECT_EQ(fleet.ingested_wal_horizon(), 9u);  // seqs 7,8 ingested

  // An empty drain or a hookless interleave must not regress it.
  EXPECT_EQ(fleet.drain(), 0u);
  EXPECT_EQ(fleet.ingested_wal_horizon(), 9u);

  // Re-installing a hook starts a fresh log: horizon resets to 0.
  fleet.set_ingest_hook(
      [](const metrics::Snapshot&) -> std::uint64_t { return 0; });
  EXPECT_EQ(fleet.ingested_wal_horizon(), 0u);
  fleet.push(snapshots[4]);
  EXPECT_EQ(fleet.drain(), 1u);
  EXPECT_EQ(fleet.ingested_wal_horizon(), 1u);
}

TEST_F(FleetIngestTest, BacklogPeakIsStickyAcrossDrainsAndResetByAttach) {
  engine::FleetStream fleet(*pipeline_);
  const auto snapshots = stream(core::ApplicationClass::kMemory, 8);
  for (const auto& snapshot : snapshots) fleet.push(snapshot);
  EXPECT_EQ(fleet.backlog_peak(), 8u);
  EXPECT_EQ(fleet.drain(), 8u);
  fleet.push(snapshots[0]);
  EXPECT_EQ(fleet.backlog_peak(), 8u);  // sticky across the drain

  // attach() starts a new subscription episode with a fresh peak.
  monitor::MetricBus bus;
  fleet.attach(bus);
  EXPECT_EQ(fleet.backlog_peak(), 0u);
  bus.announce(snapshots[0]);
  bus.announce(snapshots[1]);
  EXPECT_EQ(fleet.backlog_peak(), 3u);  // 1 pre-attach + 2 announced
  fleet.detach();
}

// --- Batched classification bit-identity -----------------------------------

TEST_F(FleetIngestTest, BatchPathMatchesPerSnapshotClassify) {
  // One pool of every class; the batch path, the per-snapshot view and
  // the sharded pool path must agree on every output they share, under
  // both vote metrics and with novelty accounting on.
  metrics::DataPool pool("10.0.0.1");
  for (std::size_t c = 0; c < core::kClassCount; ++c)
    for (auto& snapshot : stream(core::class_from_index(c), 12,
                                 static_cast<metrics::SimTime>(c) * 1000))
      pool.add(std::move(snapshot));
  const std::span<const metrics::Snapshot> mixed = pool.snapshots();

  for (const auto metric :
       {core::DistanceMetric::kEuclidean, core::DistanceMetric::kManhattan}) {
    core::PipelineOptions options;
    options.knn.metric = metric;
    options.novelty_threshold = 3.0;
    core::ClassificationPipeline pipeline(options);
    pipeline.train(core::testing::synthetic_training());
    const core::ClassificationResult pooled = pipeline.classify(pool);
    ASSERT_EQ(pooled.novelty.size(), mixed.size());

    for (const bool detailed : {false, true}) {
      core::SnapshotBatch batch;
      pipeline.begin_snapshot_batch(batch, mixed.size(), detailed);
      auto scratch = pipeline.acquire_scratch();
      for (std::size_t i = 0; i < mixed.size(); ++i)
        pipeline.classify_snapshot_into(mixed[i], batch, i, *scratch);

      for (std::size_t i = 0; i < mixed.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "metric=" << static_cast<int>(metric)
                     << " detailed=" << detailed << " i=" << i);
        EXPECT_EQ(batch.label(i), pipeline.classify(mixed[i]));
        EXPECT_EQ(batch.label(i), pooled.class_vector[i]);
        if (!detailed) continue;
        const core::SnapshotClassification& detail = batch.detail(i);
        EXPECT_EQ(detail.label, batch.label(i));
        EXPECT_EQ(detail.confidence, pooled.confidences[i]);
        EXPECT_EQ(detail.novelty, pooled.novelty[i]);
        ASSERT_EQ(detail.projected.size(), pooled.projected.cols());
        for (std::size_t j = 0; j < detail.projected.size(); ++j)
          EXPECT_EQ(detail.projected[j], pooled.projected(i, j));
        EXPECT_GE(detail.vote_margin, 0.0);
        EXPECT_LE(detail.vote_margin, detail.confidence);
      }
    }
  }
}

// --- The headline guard: zero allocations per warmed cycle -----------------

/// Warms `fleet` (attached to `bus`) with stable per-node streams, then
/// expects ten announce→push→drain→ingest cycles to touch the heap zero
/// times. Node n keeps announcing class n % kClassCount, so windows fill,
/// coverage settles, and no change events fire inside the measured
/// region. The snapshots are pre-generated so the region contains *only*
/// the announce→push→drain→ingest path.
void expect_allocation_free_cycles(engine::FleetStream& fleet,
                                   monitor::MetricBus& bus,
                                   const core::OnlineOptions& options,
                                   std::size_t nodes) {
  const std::size_t kPerCycle = 4;
  std::vector<metrics::Snapshot> cycle;
  for (std::size_t s = 0; s < kPerCycle; ++s)
    for (std::size_t node = 0; node < nodes; ++node)
      cycle.push_back(grid_snapshot(
          core::class_from_index(node % core::kClassCount),
          1000 + node * kPerCycle + s, 0,
          "10.0." + std::to_string(node) + ".1"));
  metrics::SimTime t = 0;
  const auto run_cycle = [&] {
    for (std::size_t s = 0; s < kPerCycle; ++s) {
      for (std::size_t node = 0; node < nodes; ++node) {
        metrics::Snapshot& snapshot = cycle[s * nodes + node];
        snapshot.time = t;
        bus.announce(snapshot);
      }
      t += options.sampling_interval_s;
    }
    return fleet.drain();
  };

  // Warmup: rings, batch, scratch pool, per-node windows, vote scratch,
  // and every metrics singleton reach their steady footprint.
  const std::size_t warm_cycles =
      options.window / kPerCycle + 4;  // windows must fill AND start evicting
  for (std::size_t i = 0; i < warm_cycles; ++i)
    ASSERT_EQ(run_cycle(), nodes * kPerCycle);

  const std::uint64_t ring_grows_before = fleet.ring_grows();
  const std::uint64_t before = allocations();
  std::size_t drained = 0;
  for (int i = 0; i < 10; ++i) drained += run_cycle();
  const std::uint64_t after = allocations();

  EXPECT_EQ(drained, 10u * nodes * kPerCycle);
  EXPECT_EQ(after - before, 0u)
      << "steady-state ingest allocated " << (after - before) << " times over "
      << drained << " snapshots";
  EXPECT_EQ(fleet.ring_grows(), ring_grows_before);
}

TEST_F(FleetIngestTest, SteadyStatePushDrainCycleIsAllocationFree) {
  core::OnlineOptions options;
  engine::FleetStream fleet(*pipeline_, options);
  monitor::MetricBus bus;
  fleet.attach(bus);
  expect_allocation_free_cycles(fleet, bus, options, core::kClassCount);
  fleet.detach();
}

TEST_F(FleetIngestTest, HealthAttachedPushDrainCycleIsAllocationFree) {
  // The serve configuration: model health attached with drift on, and
  // more nodes than top_nodes, so most nodes record into "other".
  core::OnlineOptions options;
  obs::ModelHealthOptions health_options = core::make_health_options();
  health_options.top_nodes = 16;
  ASSERT_TRUE(health_options.drift_enabled);
  obs::ModelHealth health(health_options);
  engine::FleetStream fleet(*pipeline_, options);
  fleet.online().attach_health(&health);
  monitor::MetricBus bus;
  fleet.attach(bus);
  expect_allocation_free_cycles(fleet, bus, options, 64);
  fleet.detach();

  // The drift reference froze during warm-up, and the measured cycles
  // reached both admitted cards and the shared "other" card.
  EXPECT_NE(health.drift_json().find("\"reference_ready\":true"),
            std::string::npos);
  const std::string nodes = health.nodes_json();
  EXPECT_NE(nodes.find("\"tracked\":16"), std::string::npos) << nodes;
  EXPECT_NE(nodes.find("\"overflowed\":48"), std::string::npos) << nodes;
}

// --- Label admission ------------------------------------------------------

TEST(LabelSetAllocationTest, ReadmittingAnOverflowedValueIsAllocationFree) {
  obs::BoundedLabelSet labels(1);
  (void)labels.admit("10.0.0.1");
  ASSERT_EQ(&labels.admit("10.0.0.2"), &labels.overflow_label());
  const std::uint64_t before = allocations();
  bool overflowed = true;
  for (int i = 0; i < 100; ++i)
    overflowed &= &labels.admit("10.0.0.2") == &labels.overflow_label();
  EXPECT_EQ(allocations(), before);
  EXPECT_TRUE(overflowed);
  EXPECT_EQ(labels.overflowed(), 1u);
}

}  // namespace
}  // namespace appclass
