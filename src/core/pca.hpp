// PCA feature extraction (paper section 4.2.2).
//
// Fits principal components on the normalized training samples and projects
// snapshots onto the leading components. The number of components kept is
// chosen by a minimal fraction-of-variance threshold, optionally overridden
// to an exact count (the paper tunes the threshold so exactly q = 2
// components are extracted, which also makes the clusters plottable).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"

namespace appclass::core {

struct PcaOptions {
  /// Keep the smallest number of leading components whose cumulative
  /// explained-variance fraction reaches this threshold.
  double min_fraction_variance = 0.7;
  /// If non-zero, keep exactly this many components regardless of variance.
  std::size_t forced_components = 0;
};

class Pca {
 public:
  explicit Pca(PcaOptions options = {}) : options_(options) {}

  /// Fits on `samples` (observations in rows, already normalized).
  void fit(const linalg::Matrix& samples);

  bool fitted() const noexcept { return fitted_; }

  /// Input dimensionality p.
  std::size_t input_dimension() const;
  /// Extracted dimensionality q.
  std::size_t components() const;

  /// All eigenvalues of the covariance, descending.
  std::span<const double> eigenvalues() const;

  /// Fraction of total variance explained by each *kept* component.
  std::vector<double> explained_variance_ratio() const;
  /// Cumulative variance fraction captured by the kept components.
  double captured_variance() const;

  /// Projection matrix W (p x q): column j is the j-th principal axis.
  const linalg::Matrix& projection() const;

  /// Per-feature mean subtracted before projection.
  std::span<const double> mean() const;

  /// Projects observations (m x p) to the component space (m x q) — the
  /// paper's B(q x m) step (observation-major here).
  linalg::Matrix transform(const linalg::Matrix& samples) const;

  /// Projects rows [begin, end) of `samples` into the same rows of `out`
  /// (pre-sized m x q) — the sharded form of transform(Matrix). Each row
  /// goes through transform_into, so pool and single-snapshot
  /// projections agree by construction, and any shard partition
  /// reassembles to the exact transform(Matrix) result.
  void transform_rows(const linalg::Matrix& samples, std::size_t begin,
                      std::size_t end, linalg::Matrix& out) const;

  /// Projects one observation.
  std::vector<double> transform(std::span<const double> row) const;

  /// Allocation-free form of transform(span): writes component j to
  /// out[j * stride] — stride 1 for a dense vector, or a QueryBlock's
  /// stride to project straight into the kernel's feature-major layout.
  /// Accumulates component-outer, feature-inner, from 0.0 — the only
  /// projection arithmetic: the vector overload and transform_rows
  /// delegate here.
  void transform_into(std::span<const double> row, double* out,
                      std::size_t stride) const;

  /// Reconstructs observations from component space (m x q -> m x p);
  /// useful for measuring reconstruction error in ablations.
  linalg::Matrix inverse_transform(const linalg::Matrix& projected) const;

  /// Rebuilds a fitted PCA from persisted state (serialization).
  static Pca restore(std::vector<double> mean,
                     std::vector<double> eigenvalues,
                     linalg::Matrix projection);

 private:
  PcaOptions options_;
  bool fitted_ = false;
  std::vector<double> mean_;
  std::vector<double> eigenvalues_;
  linalg::Matrix projection_;  // p x q
};

}  // namespace appclass::core
