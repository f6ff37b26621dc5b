// The end-to-end classification pipeline (paper Figure 2):
//
//   A(n x m) --preprocess--> A'(p x m) --PCA--> B(q x m) --3-NN--> C(1 x m)
//            --vote--> Class (+ class composition)
//
// Training fits the normalization and PCA on the labelled training pools
// and stores the projected training points in the k-NN; classification
// replays the fitted transforms on a test pool.
//
// Classification is per snapshot (paper section 4.2): one routine,
// classify_snapshot_into(), normalizes, projects and 3-NN-labels a
// snapshot into a slot of a SnapshotBatch. The stream, the fleet drain,
// recovery and the single-snapshot call run it on their own batches;
// classify(pool) runs it as a sharded batch over the pool's snapshots and
// votes. The Matrix transforms (preprocess, PCA) serve train() and
// project().
//
// Execution model: every batch loop (training-pool extraction, PCA
// projection, the per-snapshot classification) runs through one
// engine::ExecutionContext. `PipelineOptions::parallelism` selects it at
// construction — 1 is serial on the calling thread, N > 1 shards the
// same loops over a pool of N threads. Shard boundaries
// and reduction order are thread-count-independent, so results are
// bit-identical whichever you pick; there is no separate parallel code
// path for callers to opt into.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/composition.hpp"
#include "core/knn.hpp"
#include "core/pca.hpp"
#include "core/preprocess.hpp"
#include "engine/context.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::core {

/// One labelled training source: every snapshot of `pool` is assumed to
/// exhibit class `label` (the paper trains from dedicated runs of one
/// canonical application per class).
struct LabeledPool {
  metrics::DataPool pool;
  ApplicationClass label;
};

struct PipelineOptions {
  /// Metric selection for the preprocessor; empty = Table-1 expert list.
  std::vector<metrics::MetricId> selected_metrics;
  /// PCA component selection. The paper sets the variance threshold so
  /// that exactly two components are kept; forcing q = 2 reproduces that.
  PcaOptions pca{.min_fraction_variance = 0.7, .forced_components = 2};
  /// k-NN settings (paper: k = 3, Euclidean).
  KnnOptions knn{};
  /// Novelty threshold. A snapshot's novelty score is its distance to
  /// the nearest training point in PCA space, measured in the k-NN vote
  /// metric: the L2 distance under kEuclidean, the L1 distance under
  /// kManhattan (hits[0] of the vote's own scan). A snapshot whose score
  /// exceeds the threshold — farther than this from EVERY training point
  /// — is counted as novel (an open-environment application unlike any
  /// trained behaviour). 0 disables novelty accounting. The trained
  /// clusters live within a few units of each other (z-scored inputs), so
  /// ~2-4 is a useful range under kEuclidean (an L1 distance is up to
  /// sqrt(q) times its L2 distance).
  double novelty_threshold = 0.0;
  /// Execution width: 1 = serial (default), N = a pool of N worker
  /// threads, 0 = one worker per hardware core. Results are
  /// bit-identical for every value.
  std::size_t parallelism = 1;
};

/// Result of classifying one application run.
///
/// Scalar summaries are *derived* from the vectors by the accessors
/// below — there is exactly one implementation of each reduction, here,
/// instead of every bench tool folding the vectors its own way.
struct ClassificationResult {
  /// Per-snapshot classes — the paper's C(1 x m).
  std::vector<ApplicationClass> class_vector;
  /// Per-snapshot k-NN vote share of the winning class (in (0, 1]);
  /// 1.0 means a unanimous neighbourhood.
  std::vector<double> confidences;
  /// Per-snapshot novelty score (see PipelineOptions::novelty_threshold);
  /// empty when novelty accounting is disabled.
  std::vector<double> novelty;
  /// The novelty threshold the pipeline classified under (0 = disabled).
  double novelty_threshold = 0.0;
  /// Snapshot shares per class.
  ClassComposition composition;
  /// Majority vote — the application's Class.
  ApplicationClass application_class = ApplicationClass::kIdle;
  /// Snapshots projected to PCA space (m x q), for cluster diagrams.
  linalg::Matrix projected;

  /// Mean of `confidences` (0 for an empty result) — the canonical
  /// reduction; do not recompute it at call sites.
  double mean_confidence() const;
  /// Fraction of snapshots whose novelty score exceeds the threshold
  /// (0 when novelty accounting was disabled).
  double novel_fraction() const;
};

/// Per-snapshot classification evidence for the model-health layer: the
/// label plus everything the vote already knew but the plain online path
/// throws away. Produced by classify_snapshot_into() on a detailed
/// SnapshotBatch; the label comes from the same routine as on a
/// label-only batch, so enabling the evidence never changes
/// classification output.
struct SnapshotClassification {
  ApplicationClass label = ApplicationClass::kIdle;
  /// Winning-class vote share in (0, 1]; 1.0 = unanimous neighbourhood.
  double confidence = 0.0;
  /// (winner votes - runner-up votes) / k, in [0, 1].
  double vote_margin = 0.0;
  /// Novelty score (see PipelineOptions::novelty_threshold).
  double novelty = 0.0;
  /// The snapshot's PCA-space coordinates (drift-detector feed).
  std::vector<double> projected;
};

/// Everything one classification worker reuses across snapshots: the
/// normalized-row staging buffer and the k-NN kernel scratch. Grow-only;
/// after the first query through it, classifying further snapshots of
/// the same pipeline performs zero heap allocations.
struct SnapshotScratch {
  std::vector<double> row;  ///< preprocessor output (p doubles)
  engine::BlockedKnnIndex::Scratch kernel;
};

/// Fixed-slot pool of SnapshotScratch leased per worker. Slots are
/// probed starting at engine::current_worker_slot(), so each pool worker
/// lands on its own warm slot in one CAS; non-worker callers share the
/// remaining slots. When every slot is busy (more concurrent callers
/// than the pool was sized for) acquire() falls back to a heap-allocated
/// overflow scratch — never wrong, never hit in steady state, and
/// counted in `appclass_pipeline_scratch_overflows_total`.
class SnapshotScratchPool {
 public:
  /// `slots` should cover parallelism + expected concurrent callers.
  explicit SnapshotScratchPool(std::size_t slots);

  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    SnapshotScratch& operator*() const noexcept { return *scratch_; }
    SnapshotScratch* operator->() const noexcept { return scratch_; }

   private:
    friend class SnapshotScratchPool;
    Lease(SnapshotScratchPool* pool, std::size_t slot,
          SnapshotScratch* scratch) noexcept
        : pool_(pool), slot_(slot), scratch_(scratch) {}
    explicit Lease(std::unique_ptr<SnapshotScratch> overflow) noexcept
        : overflow_(std::move(overflow)), scratch_(overflow_.get()) {}

    SnapshotScratchPool* pool_ = nullptr;  ///< null for overflow leases
    std::size_t slot_ = 0;
    std::unique_ptr<SnapshotScratch> overflow_;
    SnapshotScratch* scratch_ = nullptr;
  };

  Lease acquire();

 private:
  struct Slot {
    std::atomic<bool> busy{false};
    SnapshotScratch scratch;
  };

  std::vector<Slot> slots_;  ///< fixed at construction: lock-free probing
};

/// A batch of snapshots mid-classification (a fleet drain, a pool, or a
/// caller's batch of one): the query points in the kernel's feature-major
/// SoA layout plus per-snapshot outputs (label, vote share, novelty).
/// Grow-only — reusing one batch across drains is what makes the stream
/// path allocation-free once it has seen its largest drain.
class SnapshotBatch {
 public:
  std::size_t size() const noexcept { return count_; }
  bool detailed() const noexcept { return detailed_; }

  ApplicationClass label(std::size_t i) const { return labels_[i]; }
  /// Valid only on a detailed batch.
  const SnapshotClassification& detail(std::size_t i) const {
    return details_[i];
  }

 private:
  friend class ClassificationPipeline;

  engine::QueryBlock queries_;
  std::vector<ApplicationClass> labels_;
  std::vector<double> shares_;   ///< winning-class vote share per slot
  std::vector<double> novelty_;  ///< novelty score per slot
  /// Sized lazily and never shrunk, so the per-entry `projected` vectors
  /// keep their capacity across drains; count_ bounds the valid range.
  std::vector<SnapshotClassification> details_;
  std::size_t count_ = 0;
  bool detailed_ = false;
};

class ClassificationPipeline {
 public:
  explicit ClassificationPipeline(PipelineOptions options = {});

  /// Fits preprocessing + PCA on the union of the training pools and
  /// trains the k-NN on their projected snapshots. Per-pool extraction
  /// and training-set projection run on the execution context.
  void train(const std::vector<LabeledPool>& training);

  bool trained() const noexcept { return trained_; }

  /// Classifies a full run: classify_snapshot_into() as a batch over the
  /// pool's snapshots (sharded over the execution context), then the vote.
  ClassificationResult classify(const metrics::DataPool& pool) const;

  /// Classifies one snapshot (online mode): classify_snapshot_into() on
  /// a label-only batch of one.
  ApplicationClass classify(const metrics::Snapshot& snapshot) const;

  /// Prepares `batch` for `count` snapshots — `detailed` selects
  /// label-only or full-evidence (SnapshotClassification) outputs —
  /// reusing all of its storage from previous batches. The fleet drain
  /// passes its whole backlog; single-snapshot callers a batch of one.
  void begin_snapshot_batch(SnapshotBatch& batch, std::size_t count,
                            bool detailed) const;

  /// THE per-snapshot classification routine: normalizes + projects
  /// `snapshot` straight into slot `i` of the batch's feature-major query
  /// block, runs the k-NN search on it and votes. Distinct slots are
  /// independent — shards may call this concurrently with one scratch per
  /// caller. Allocation-free after warmup.
  void classify_snapshot_into(const metrics::Snapshot& snapshot,
                              SnapshotBatch& batch, std::size_t i,
                              SnapshotScratch& scratch) const;

  /// Leases per-worker query scratch from the pipeline's pool (sized to
  /// the execution context's parallelism plus caller headroom).
  SnapshotScratchPool::Lease acquire_scratch() const {
    return scratch_pool_->acquire();
  }

  /// The configured novelty threshold (0 = novelty accounting disabled).
  double novelty_threshold() const noexcept {
    return options_.novelty_threshold;
  }

  /// Projects a pool into PCA space without classifying (diagrams).
  linalg::Matrix project(const metrics::DataPool& pool) const;

  /// Rebuilds a trained pipeline from persisted components (serialization;
  /// see core/serialize.hpp).
  static ClassificationPipeline restore(Preprocessor preprocessor, Pca pca,
                                        KnnClassifier knn);

  /// Replaces the execution context (e.g. after restore, or the CLI's
  /// --threads flag): 1 = serial, N = pool of N, 0 = hardware cores.
  void set_parallelism(std::size_t parallelism);

  /// The execution context batch work runs on (shared with the fleet
  /// engine when one wraps this pipeline).
  const std::shared_ptr<engine::ExecutionContext>& context() const noexcept {
    return context_;
  }

  /// Training points in PCA space with their labels (cluster diagrams,
  /// Figure 3(a)).
  const KnnClassifier& knn() const noexcept { return knn_; }
  const Preprocessor& preprocessor() const noexcept { return preprocessor_; }
  const Pca& pca() const noexcept { return pca_; }

 private:
  /// The two halves of classify_snapshot_into(), which classify(pool)
  /// runs as separate sharded passes (timed as pca_project, knn_query).
  /// Project: normalize + PCA-project `snapshot` into slot `i`.
  void project_into(const metrics::Snapshot& snapshot, SnapshotBatch& batch,
                    std::size_t i, SnapshotScratch& scratch) const;
  /// Search: k-NN search + vote on slot `i`, recording its evidence.
  void search_into(SnapshotBatch& batch, std::size_t i,
                   engine::BlockedKnnIndex::Scratch& scratch) const;

  PipelineOptions options_;
  Preprocessor preprocessor_;
  Pca pca_;
  KnnClassifier knn_;
  std::shared_ptr<engine::ExecutionContext> context_;
  /// Worker-keyed query scratch; shared_ptr keeps the pipeline copyable
  /// (the pool holds atomics — copies share it, which is safe because
  /// slots are leased atomically). Rebuilt by set_parallelism.
  std::shared_ptr<SnapshotScratchPool> scratch_pool_;
  bool trained_ = false;
};

}  // namespace appclass::core
