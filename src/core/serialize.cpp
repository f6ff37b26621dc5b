#include "core/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/assert.hpp"
#include "common/fnv1a.hpp"
#include "common/fs.hpp"

namespace appclass::core {

namespace {

// v2 appends a `checksum <16-hex FNV-1a-64>` footer over the whole body so
// a truncated or bit-flipped model file fails loudly at load instead of
// silently classifying with a damaged model. v1 files (no footer) are
// still readable.
constexpr std::string_view kMagic = "appclass-pipeline v2";
constexpr std::string_view kMagicV1 = "appclass-pipeline v1";
constexpr std::string_view kChecksumTag = "checksum ";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("pipeline deserialization: " + what);
}

std::string to_hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
  return out;
}

std::string expect_tag(std::istream& is, const std::string& tag) {
  std::string got;
  if (!(is >> got) || got != tag) fail("expected '" + tag + "'");
  return got;
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) fail("truncated number");
  return v;
}

std::size_t read_size(std::istream& is) {
  long long v = 0;
  if (!(is >> v) || v < 0) fail("bad count");
  return static_cast<std::size_t>(v);
}

}  // namespace

std::string save_pipeline(const ClassificationPipeline& pipeline) {
  APPCLASS_EXPECTS(pipeline.trained());
  std::ostringstream os;
  os.precision(17);

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
  std::string body = os.str();
  body.append(kChecksumTag);
  body.append(to_hex64(common::fnv1a64(
      std::string_view(body.data(), body.size() - kChecksumTag.size()))));
  body.push_back('\n');
  return body;
}

ClassificationPipeline load_pipeline(const std::string& text) {
  std::string_view view = text;
  if (view.empty()) fail("empty model file");
  const bool v1 = view.rfind(kMagicV1, 0) == 0;
  if (!v1 && view.rfind(kMagic, 0) != 0) fail("bad magic/version header");

  if (!v1) {
    // Verify the checksum footer before trusting any field.
    const std::size_t footer = view.rfind(kChecksumTag);
    if (footer == std::string_view::npos)
      fail("missing checksum footer (truncated file?)");
    std::string_view recorded = view.substr(footer + kChecksumTag.size());
    while (!recorded.empty() &&
           (recorded.back() == '\n' || recorded.back() == '\r' ||
            recorded.back() == ' '))
      recorded.remove_suffix(1);
    // A footer tag with fewer than 16 hex digits means the crash landed
    // inside the footer itself — report that distinctly from damage to
    // the body, which surfaces as a value mismatch below.
    if (recorded.size() != 16 ||
        recorded.find_first_not_of("0123456789abcdef") !=
            std::string_view::npos)
      fail("truncated checksum footer (expected 16 hex digits, found '" +
           std::string(recorded) + "')");
    const std::string computed =
        to_hex64(common::fnv1a64(view.substr(0, footer)));
    if (recorded != computed)
      fail("checksum mismatch: file is corrupt (expected " + computed +
           ", found '" + std::string(recorded) + "')");
  }

  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || (line != kMagic && line != kMagicV1))
    fail("bad magic/version header");

  // --- preprocessor ---
  expect_tag(is, "metrics");
  const std::size_t p = read_size(is);
  if (p == 0 || p > metrics::kMetricCount) fail("bad metric count");
  std::vector<metrics::MetricId> selected;
  for (std::size_t i = 0; i < p; ++i) {
    std::string name;
    if (!(is >> name)) fail("truncated metric list");
    const auto id = metrics::find_metric(name);
    if (!id) fail("unknown metric '" + name + "'");
    selected.push_back(*id);
  }
  linalg::ColumnStats stats;
  expect_tag(is, "norm-mean");
  for (std::size_t i = 0; i < p; ++i) stats.mean.push_back(read_double(is));
  expect_tag(is, "norm-stddev");
  for (std::size_t i = 0; i < p; ++i) {
    const double sd = read_double(is);
    if (sd <= 0.0) fail("non-positive stddev");
    stats.stddev.push_back(sd);
  }

  // --- pca ---
  expect_tag(is, "pca");
  if (read_size(is) != p) fail("pca dimension mismatch");
  const std::size_t q = read_size(is);
  if (q == 0 || q > p) fail("bad component count");
  std::vector<double> mean, eigenvalues;
  expect_tag(is, "pca-mean");
  for (std::size_t i = 0; i < p; ++i) mean.push_back(read_double(is));
  expect_tag(is, "pca-eigenvalues");
  for (std::size_t i = 0; i < p; ++i)
    eigenvalues.push_back(read_double(is));
  linalg::Matrix projection(p, q);
  for (std::size_t r = 0; r < p; ++r) {
    expect_tag(is, "pca-row");
    for (std::size_t c = 0; c < q; ++c) projection(r, c) = read_double(is);
  }

  // --- knn ---
  expect_tag(is, "knn");
  const std::size_t n = read_size(is);
  const std::size_t k = read_size(is);
  std::string metric_name;
  if (!(is >> metric_name)) fail("missing distance metric");
  KnnOptions knn_options;
  knn_options.k = k;
  if (metric_name == "manhattan")
    knn_options.metric = DistanceMetric::kManhattan;
  else if (metric_name == "euclidean")
    knn_options.metric = DistanceMetric::kEuclidean;
  else
    fail("unknown distance metric '" + metric_name + "'");
  if (n < k) fail("fewer training points than k");

  linalg::Matrix points(n, q);
  std::vector<ApplicationClass> labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string label_name;
    if (!(is >> label_name)) fail("truncated training set");
    const auto label = class_from_string(label_name);
    if (!label) fail("unknown class '" + label_name + "'");
    labels.push_back(*label);
    for (std::size_t c = 0; c < q; ++c) points(i, c) = read_double(is);
  }

  // After the training set the only legal continuations are the checksum
  // footer (v2) or end of file (v1). Anything else is a section this
  // build does not understand — loading would silently drop state, so
  // refuse loudly instead.
  std::string trailing;
  if (is >> trailing && trailing != "checksum")
    fail("unknown section '" + trailing +
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
