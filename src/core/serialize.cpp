#include "core/serialize.hpp"

#include <stdexcept>
#include <string_view>

#include "common/assert.hpp"
#include "common/fs.hpp"
#include "common/sealed_text.hpp"

namespace appclass::core {

namespace {

// v2 appends a `checksum <16-hex FNV-1a-64>` footer over the whole body so
// a truncated or bit-flipped model file fails loudly at load instead of
// silently classifying with a damaged model. v1 files (no footer) are
// still readable.
constexpr std::string_view kMagic = "appclass-pipeline v2";
constexpr std::string_view kMagicV1 = "appclass-pipeline v1";
constexpr std::string_view kContext = "pipeline deserialization";

}  // namespace

std::string save_pipeline(const ClassificationPipeline& pipeline) {
  APPCLASS_EXPECTS(pipeline.trained());
  common::TextWriter os;

  const Preprocessor& pre = pipeline.preprocessor();
  const Pca& pca = pipeline.pca();
  const KnnClassifier& knn = pipeline.knn();
  const std::size_t p = pre.dimension();
  const std::size_t q = pca.components();

  os << kMagic << '\n';
  os << "metrics " << p;
  for (const auto id : pre.selected()) os << ' ' << metrics::info(id).name;
  os << '\n';
  os << "norm-mean";
  for (double v : pre.stats().mean) os << ' ' << v;
  os << "\nnorm-stddev";
  for (double v : pre.stats().stddev) os << ' ' << v;
  os << '\n';
  os << "pca " << p << ' ' << q << '\n';
  os << "pca-mean";
  for (double v : pca.mean()) os << ' ' << v;
  os << "\npca-eigenvalues";
  for (double v : pca.eigenvalues()) os << ' ' << v;
  os << '\n';
  for (std::size_t r = 0; r < p; ++r) {
    os << "pca-row";
    for (std::size_t c = 0; c < q; ++c) os << ' ' << pca.projection()(r, c);
    os << '\n';
  }
  os << "knn " << knn.training_size() << ' ' << knn.k() << ' '
     << (knn.options().metric == DistanceMetric::kManhattan ? "manhattan"
                                                            : "euclidean")
     << '\n';
  for (std::size_t i = 0; i < knn.training_size(); ++i) {
    os << to_string(knn.training_labels()[i]);
    for (std::size_t c = 0; c < q; ++c)
      os << ' ' << knn.training_points()(i, c);
    os << '\n';
  }
  return std::move(os).seal();
}

ClassificationPipeline load_pipeline(const std::string& text) {
  if (text.empty()) common::fail_parse(kContext, "empty model file");
  const bool v1 = text.starts_with(kMagicV1);
  if (!v1 && !text.starts_with(kMagic))
    common::fail_parse(kContext, "bad magic/version header");
  if (!v1) common::check_seal(text, kContext);

  common::TextReader in(text, kContext);
  in.expect_header(v1 ? kMagicV1 : kMagic);

  // --- preprocessor ---
  in.expect_tag("metrics");
  const std::size_t p = in.read_size();
  if (p == 0 || p > metrics::kMetricCount) in.fail("bad metric count");
  std::vector<metrics::MetricId> selected;
  for (std::size_t i = 0; i < p; ++i) {
    const std::string_view name = in.word("truncated metric list");
    const auto id = metrics::find_metric(name);
    if (!id) in.fail("unknown metric '" + std::string(name) + "'");
    selected.push_back(*id);
  }
  linalg::ColumnStats stats;
  in.expect_tag("norm-mean");
  for (std::size_t i = 0; i < p; ++i) stats.mean.push_back(in.read_double());
  in.expect_tag("norm-stddev");
  for (std::size_t i = 0; i < p; ++i) {
    const double sd = in.read_double();
    if (sd <= 0.0) in.fail("non-positive stddev");
    stats.stddev.push_back(sd);
  }

  // --- pca ---
  in.expect_tag("pca");
  if (in.read_size() != p) in.fail("pca dimension mismatch");
  const std::size_t q = in.read_size();
  if (q == 0 || q > p) in.fail("bad component count");
  std::vector<double> mean, eigenvalues;
  in.expect_tag("pca-mean");
  for (std::size_t i = 0; i < p; ++i) mean.push_back(in.read_double());
  in.expect_tag("pca-eigenvalues");
  for (std::size_t i = 0; i < p; ++i)
    eigenvalues.push_back(in.read_double());
  linalg::Matrix projection(p, q);
  for (std::size_t r = 0; r < p; ++r) {
    in.expect_tag("pca-row");
    for (std::size_t c = 0; c < q; ++c) projection(r, c) = in.read_double();
  }

  // --- knn ---
  in.expect_tag("knn");
  const std::size_t n = in.read_count();
  const std::size_t k = in.read_size();
  const std::string_view metric_name = in.word("missing distance metric");
  KnnOptions knn_options;
  knn_options.k = k;
  if (metric_name == "manhattan")
    knn_options.metric = DistanceMetric::kManhattan;
  else if (metric_name == "euclidean")
    knn_options.metric = DistanceMetric::kEuclidean;
  else
    in.fail("unknown distance metric '" + std::string(metric_name) + "'");
  if (n < k) in.fail("fewer training points than k");

  linalg::Matrix points(n, q);
  std::vector<ApplicationClass> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view label_name = in.word("truncated training set");
    const auto label = class_from_string(label_name);
    if (!label) in.fail("unknown class '" + std::string(label_name) + "'");
    labels.push_back(*label);
    for (std::size_t c = 0; c < q; ++c) points(i, c) = in.read_double();
  }

  // After the training set the only legal continuations are the checksum
  // footer (v2) or end of file (v1). Anything else is a section this
  // build does not understand — loading would silently drop state, so
  // refuse loudly instead.
  const std::string_view trailing = in.word();
  if (!trailing.empty() && trailing != "checksum")
    in.fail("unknown section '" + std::string(trailing) +
            "' (file written by a newer format version?)");

  KnnClassifier knn(knn_options);
  knn.train(std::move(points), std::move(labels));
  return ClassificationPipeline::restore(
      Preprocessor::restore(std::move(selected), std::move(stats)),
      Pca::restore(std::move(mean), std::move(eigenvalues),
                   std::move(projection)),
      std::move(knn));
}

void save_pipeline_file(const ClassificationPipeline& pipeline,
                        const std::string& path) {
  // Write-temp + rename: a crash mid-save leaves the previous model (or
  // nothing) in place, never a truncated file that fails its checksum at
  // the next startup. Errors carry path + errno context.
  common::atomic_write_file(path, save_pipeline(pipeline));
}

ClassificationPipeline load_pipeline_file(const std::string& path) {
  std::string text;
  try {
    text = common::read_file_or_throw(path);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("pipeline model: " + std::string(e.what()));
  }
  return load_pipeline(text);
}

}  // namespace appclass::core
