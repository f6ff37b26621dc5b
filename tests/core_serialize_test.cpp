#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/sealed_text.hpp"
#include "core_test_util.hpp"

namespace appclass::core {
namespace {

ClassificationPipeline trained() {
  ClassificationPipeline pipeline;
  pipeline.train(testing::synthetic_training(25));
  return pipeline;
}

TEST(Serialize, HeaderAndStructure) {
  const std::string text = save_pipeline(trained());
  EXPECT_EQ(text.rfind("appclass-pipeline v2", 0), 0u);
  EXPECT_NE(text.find("metrics 8 cpu_system cpu_user"), std::string::npos);
  EXPECT_NE(text.find("pca 8 2"), std::string::npos);
  EXPECT_NE(text.find("knn 125 3 euclidean"), std::string::npos);
  // v2 ends with a 16-hex-digit FNV-1a checksum footer.
  const auto footer = text.rfind("checksum ");
  ASSERT_NE(footer, std::string::npos);
  const std::string digest =
      text.substr(footer + 9, text.size() - footer - 10);
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Serialize, RoundTripPreservesEveryPrediction) {
  const ClassificationPipeline original = trained();
  const ClassificationPipeline restored =
      load_pipeline(save_pipeline(original));
  ASSERT_TRUE(restored.trained());
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto pool =
        testing::synthetic_pool(class_from_index(c), 25, 400 + c);
    const auto a = original.classify(pool);
    const auto b = restored.classify(pool);
    EXPECT_EQ(a.class_vector, b.class_vector);
    EXPECT_LT(a.projected.max_abs_diff(b.projected), 1e-12);
  }
}

TEST(Serialize, RoundTripPreservesModelParameters) {
  const ClassificationPipeline original = trained();
  const ClassificationPipeline restored =
      load_pipeline(save_pipeline(original));
  EXPECT_EQ(restored.preprocessor().dimension(),
            original.preprocessor().dimension());
  EXPECT_EQ(restored.pca().components(), original.pca().components());
  EXPECT_EQ(restored.knn().training_size(), original.knn().training_size());
  EXPECT_EQ(restored.knn().k(), original.knn().k());
  EXPECT_LT(restored.pca().projection().max_abs_diff(
                original.pca().projection()),
            1e-15);
}

TEST(Serialize, SecondRoundTripIsIdentical) {
  const std::string once = save_pipeline(trained());
  const std::string twice = save_pipeline(load_pipeline(once));
  EXPECT_EQ(once, twice);
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW(load_pipeline("not a pipeline\n"), std::runtime_error);
  EXPECT_THROW(load_pipeline(""), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedInput) {
  std::string text = save_pipeline(trained());
  text.resize(text.size() / 2);
  EXPECT_THROW(load_pipeline(text), std::runtime_error);
}

TEST(Serialize, TruncationReportsMissingFooter) {
  std::string text = save_pipeline(trained());
  text.resize(text.size() * 2 / 3);
  try {
    load_pipeline(text);
    FAIL() << "truncated file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, BitFlipReportsChecksumMismatch) {
  std::string text = save_pipeline(trained());
  // Flip one bit in a numeric payload character mid-file.
  const auto pos = text.find("pca-mean") + 10;
  text[pos] = static_cast<char>(text[pos] ^ 0x01);
  try {
    load_pipeline(text);
    FAIL() << "corrupt file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, TamperedFooterReportsChecksumMismatch) {
  std::string text = save_pipeline(trained());
  const auto footer = text.rfind("checksum ");
  ASSERT_NE(footer, std::string::npos);
  char& digit = text[footer + 9];
  digit = digit == '0' ? '1' : '0';
  EXPECT_THROW(load_pipeline(text), std::runtime_error);
}

TEST(Serialize, LoadsLegacyV1FilesWithoutFooter) {
  // Pre-checksum files begin with the v1 magic and have no footer; they
  // must remain loadable for backward compatibility.
  std::string text = save_pipeline(trained());
  const auto footer = text.rfind("checksum ");
  ASSERT_NE(footer, std::string::npos);
  text.erase(footer);
  text.replace(text.find("appclass-pipeline v2"), 20,
               "appclass-pipeline v1");
  const ClassificationPipeline restored = load_pipeline(text);
  EXPECT_TRUE(restored.trained());
}

TEST(Serialize, RejectsUnknownMetric) {
  std::string text = save_pipeline(trained());
  const auto pos = text.find("cpu_system");
  text.replace(pos, 10, "cpu_bogus!");
  EXPECT_THROW(load_pipeline(text), std::runtime_error);
}

TEST(Serialize, RejectsUnknownClassLabel) {
  std::string text = save_pipeline(trained());
  const auto pos = text.find("\nidle ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos + 1, 4, "lazy");
  EXPECT_THROW(load_pipeline(text), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/appclass_pipeline.txt";
  const ClassificationPipeline original = trained();
  save_pipeline_file(original, path);
  const ClassificationPipeline restored = load_pipeline_file(path);
  const auto pool = testing::synthetic_pool(ApplicationClass::kIo, 10, 999);
  EXPECT_EQ(restored.classify(pool).application_class,
            original.classify(pool).application_class);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_pipeline_file("/nonexistent/dir/model.txt"),
               std::runtime_error);
}

TEST(Serialize, EmptyFileHasDistinctMessage) {
  const std::string path = ::testing::TempDir() + "/appclass_empty.txt";
  { std::ofstream out(path); }
  try {
    load_pipeline_file(path);
    FAIL() << "empty file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty model file"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Serialize, TruncationInsideChecksumFooterIsDistinct) {
  // Cut mid-footer: the "checksum " tag survives but only part of the
  // digest does — a different failure than a missing footer, and it must
  // say so instead of hashing garbage.
  std::string text = save_pipeline(trained());
  const auto footer = text.rfind("checksum ");
  ASSERT_NE(footer, std::string::npos);
  text.resize(footer + 9 + 7);  // 7 of the 16 digest characters
  try {
    load_pipeline(text);
    FAIL() << "footer-truncated file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated checksum footer"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, ValidChecksumWithUnknownFutureSectionIsRejected) {
  // A file written by a newer format revision: extra section appended
  // before the footer, checksum recomputed so it validates. The loader
  // must refuse the unknown section rather than silently ignore state it
  // does not understand.
  std::string text = save_pipeline(trained());
  const auto footer = text.rfind("checksum ");
  ASSERT_NE(footer, std::string::npos);
  std::string body =
      text.substr(0, footer) + "novelty-ensemble 3 0.5 0.25 0.125\n";
  // Recompute the footer exactly as the writer does: FNV-1a-64 over the
  // body up to and including the "checksum " tag.
  body.append("checksum ");
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const std::string_view hashed(body.data(), body.size() - 9);
  for (const char c : hashed) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string digest(16, '0');
  for (int i = 15; i >= 0; --i, hash >>= 4)
    digest[static_cast<std::size_t>(i)] = kDigits[hash & 0xf];
  body += digest;
  body += '\n';
  try {
    load_pipeline(body);
    FAIL() << "unknown future section must not load silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown section"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("novelty-ensemble"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, ResealedHugeTrainingCountIsRejected) {
  // A training-set size no file could hold, under a valid seal (v2) or
  // no seal at all (v1): the loader must fail as a parse error, not
  // size a matrix by it and escape with std::bad_alloc.
  const std::string text = save_pipeline(trained());
  std::string body = text.substr(0, text.rfind("checksum "));
  const auto knn = body.find("knn 125 3 ");
  ASSERT_NE(knn, std::string::npos);
  body.replace(knn, 7, "knn 1000000000000000");
  std::string v1 = body;
  v1.replace(0, 20, "appclass-pipeline v1");
  for (const std::string& corrupt : {common::seal_text(body), v1}) {
    try {
      load_pipeline(corrupt);
      FAIL() << "a huge training count must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "count 1000000000000000 exceeds the"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, SaveIsAtomicNoTempLeftBehind) {
  const std::string path = ::testing::TempDir() + "/appclass_atomic.txt";
  save_pipeline_file(trained(), path);
  std::ifstream check(path + ".tmp");
  EXPECT_FALSE(check.good());  // temp was renamed over the target
  const ClassificationPipeline restored = load_pipeline_file(path);
  EXPECT_TRUE(restored.trained());
  std::remove(path.c_str());
}

TEST(Serialize, SaveFailureCarriesPathAndErrnoContext) {
  try {
    save_pipeline_file(trained(), "/nonexistent/dir/model.txt");
    FAIL() << "unwritable path must not succeed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent/dir/model.txt"), std::string::npos)
        << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace appclass::core
