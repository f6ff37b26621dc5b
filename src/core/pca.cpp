#include "core/pca.hpp"

#include <numeric>

#include "common/assert.hpp"
#include "linalg/stats.hpp"

namespace appclass::core {

void Pca::fit(const linalg::Matrix& samples) {
  APPCLASS_EXPECTS(samples.rows() >= 2);
  const std::size_t p = samples.cols();

  const linalg::ColumnStats cs = linalg::column_stats(samples, 0.0);
  mean_ = cs.mean;

  const linalg::Matrix cov = linalg::covariance(samples);
  const linalg::EigenDecomposition eig = linalg::symmetric_eigen(cov);
  eigenvalues_ = eig.eigenvalues;

  // Choose q: forced count, or smallest q reaching the variance threshold.
  std::size_t q = options_.forced_components;
  if (q == 0) {
    const double total = std::accumulate(eigenvalues_.begin(),
                                         eigenvalues_.end(), 0.0);
    APPCLASS_ENSURES(total > 0.0);
    double acc = 0.0;
    for (q = 0; q < p; ++q) {
      acc += eigenvalues_[q];
      if (acc / total >= options_.min_fraction_variance) {
        ++q;
        break;
      }
    }
    q = std::max<std::size_t>(q, 1);
  }
  q = std::min(q, p);

  projection_ = eig.eigenvectors.block(0, 0, p, q);
  fitted_ = true;
}

Pca Pca::restore(std::vector<double> mean, std::vector<double> eigenvalues,
                 linalg::Matrix projection) {
  APPCLASS_EXPECTS(projection.rows() == mean.size());
  APPCLASS_EXPECTS(eigenvalues.size() == mean.size());
  APPCLASS_EXPECTS(projection.cols() >= 1 &&
                   projection.cols() <= projection.rows());
  Pca pca;
  pca.mean_ = std::move(mean);
  pca.eigenvalues_ = std::move(eigenvalues);
  pca.projection_ = std::move(projection);
  pca.fitted_ = true;
  return pca;
}

std::size_t Pca::input_dimension() const {
  APPCLASS_EXPECTS(fitted_);
  return projection_.rows();
}

std::size_t Pca::components() const {
  APPCLASS_EXPECTS(fitted_);
  return projection_.cols();
}

std::span<const double> Pca::eigenvalues() const {
  APPCLASS_EXPECTS(fitted_);
  return eigenvalues_;
}

std::vector<double> Pca::explained_variance_ratio() const {
  APPCLASS_EXPECTS(fitted_);
  const double total =
      std::accumulate(eigenvalues_.begin(), eigenvalues_.end(), 0.0);
  std::vector<double> out(components());
  for (std::size_t j = 0; j < out.size(); ++j)
    out[j] = total > 0.0 ? eigenvalues_[j] / total : 0.0;
  return out;
}

double Pca::captured_variance() const {
  const auto ratios = explained_variance_ratio();
  return std::accumulate(ratios.begin(), ratios.end(), 0.0);
}

const linalg::Matrix& Pca::projection() const {
  APPCLASS_EXPECTS(fitted_);
  return projection_;
}

std::span<const double> Pca::mean() const {
  APPCLASS_EXPECTS(fitted_);
  return mean_;
}

linalg::Matrix Pca::transform(const linalg::Matrix& samples) const {
  APPCLASS_EXPECTS(fitted_);
  APPCLASS_EXPECTS(samples.cols() == projection_.rows());
  linalg::Matrix out(samples.rows(), projection_.cols());
  transform_rows(samples, 0, samples.rows(), out);
  return out;
}

void Pca::transform_rows(const linalg::Matrix& samples, std::size_t begin,
                         std::size_t end, linalg::Matrix& out) const {
  APPCLASS_EXPECTS(fitted_);
  APPCLASS_EXPECTS(samples.cols() == projection_.rows());
  APPCLASS_EXPECTS(begin <= end && end <= samples.rows());
  APPCLASS_EXPECTS(out.rows() == samples.rows() &&
                   out.cols() == projection_.cols());
  for (std::size_t r = begin; r < end; ++r)
    transform_into(samples.row(r), out.row(r).data(), 1);
}

std::vector<double> Pca::transform(std::span<const double> row) const {
  APPCLASS_EXPECTS(fitted_);
  std::vector<double> out(projection_.cols(), 0.0);
  transform_into(row, out.data(), 1);
  return out;
}

void Pca::transform_into(std::span<const double> row, double* out,
                         std::size_t stride) const {
  APPCLASS_EXPECTS(fitted_);
  APPCLASS_EXPECTS(row.size() == projection_.rows());
  const std::size_t q = projection_.cols();
  for (std::size_t j = 0; j < q; ++j) {
    double s = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c)
      s += (row[c] - mean_[c]) * projection_(c, j);
    out[j * stride] = s;
  }
}

linalg::Matrix Pca::inverse_transform(const linalg::Matrix& projected) const {
  APPCLASS_EXPECTS(fitted_);
  APPCLASS_EXPECTS(projected.cols() == projection_.cols());
  const std::size_t m = projected.rows();
  const std::size_t p = projection_.rows();
  linalg::Matrix out(m, p);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < p; ++c) {
      double s = mean_[c];
      for (std::size_t j = 0; j < projection_.cols(); ++j)
        s += projected(r, j) * projection_(c, j);
      out(r, c) = s;
    }
  return out;
}

}  // namespace appclass::core
