// Flight recorder: ring overwrite semantics, Chrome trace JSON structure,
// file dumps, and the post-mortem crash dump.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace appclass {
namespace {

/// Minimal recursive-descent JSON reader: validates structure (it does not
/// build a DOM) and fails on anything the grammar rejects — enough to
/// prove a dump is loadable, without a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    const bool ok = value() && (skip_ws(), pos_ == text_.size());
    return ok;
  }

 private:
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_])))
              return false;
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

obs::TraceContext make_context(std::uint64_t trace, std::uint64_t span,
                               std::uint64_t parent) {
  obs::TraceContext ctx;
  ctx.trace_id = trace;
  ctx.span_id = span;
  ctx.parent_span_id = parent;
  return ctx;
}

TEST(ObsRecorder, RecordsSpansAndInstants) {
  obs::TraceRecorder recorder;
  recorder.record_span("alpha", make_context(1, 2, 0), 10, 5,
                       {{"key", "value"}});
  recorder.record_instant("beta", make_context(1, 3, 2), {});
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  // record_instant stamps wall time while the span carries an explicit
  // ts, so look events up by name instead of assuming sort order.
  const obs::TraceEvent* alpha = nullptr;
  const obs::TraceEvent* beta = nullptr;
  for (const auto& e : events) {
    if (e.name == "alpha") alpha = &e;
    if (e.name == "beta") beta = &e;
  }
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->phase, obs::TraceEvent::Phase::kSpan);
  EXPECT_EQ(alpha->dur_us, 5);
  ASSERT_EQ(alpha->attrs.size(), 1u);
  EXPECT_EQ(alpha->attrs[0].key, "key");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->phase, obs::TraceEvent::Phase::kInstant);
  EXPECT_EQ(beta->context.parent_span_id, 2u);
}

TEST(ObsRecorder, RingOverwritesOldestKeepsNewest) {
  obs::TraceRecorder recorder;
  recorder.set_thread_capacity(8);
  // "e<i>", built with += : g++ 12 at -O3 raises a false -Wrestrict on
  // the inlined `"e" + std::to_string(i)`.
  const auto name = [](int i) {
    std::string out = "e";
    out += std::to_string(i);
    return out;
  };
  // A fresh thread picks up the configured capacity for its ring.
  std::thread writer([&recorder, &name] {
    for (int i = 0; i < 20; ++i)
      recorder.record_span(name(i), make_context(1, 1, 0), i, 1, {});
  });
  writer.join();

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first unwrap: the survivors are exactly e12..e19 in order.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name, name(12 + i));
}

TEST(ObsRecorder, EventsFromExitedThreadsSurvive) {
  obs::TraceRecorder recorder;
  std::thread t1([&] {
    recorder.record_span("from_t1", make_context(1, 1, 0), 1, 1, {});
  });
  std::thread t2([&] {
    recorder.record_span("from_t2", make_context(1, 2, 0), 2, 1, {});
  });
  t1.join();
  t2.join();
  recorder.record_span("from_main", make_context(1, 3, 0), 3, 1, {});

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  // Timestamp-sorted merge across all three rings.
  EXPECT_EQ(events[0].name, "from_t1");
  EXPECT_EQ(events[1].name, "from_t2");
  EXPECT_EQ(events[2].name, "from_main");
  // Distinct threads got distinct recorder tids.
  EXPECT_NE(events[0].tid, events[2].tid);
}

TEST(ObsRecorder, ChromeJsonIsStructurallyValid) {
  obs::TraceRecorder recorder;
  recorder.record_span("span \"quoted\" name\n", make_context(7, 8, 0), 100,
                       50, {{"shard", "0..256"}, {"visited_points", 40}});
  recorder.record_instant("log.line", make_context(7, 9, 8),
                          {{"log", "a=1 b=\"x y\""}});
  recorder.record_span("plain", obs::TraceContext{}, 200, 10, {});
  const std::string json = recorder.to_chrome_json();

  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;

  // Chrome trace_event envelope and phases.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  // Ids rendered as hex strings under args.
  EXPECT_NE(json.find("\"trace_id\":\"7\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\"8\""), std::string::npos);
}

/// `json` with the digit run after each `key` replaced by `mask`: the
/// clock-stamped fields a known-answer comparison cannot pin.
std::string mask_digits_after(std::string json, const std::string& key,
                              const std::string& mask) {
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    const std::size_t begin = at + key.size();
    std::size_t end = begin;
    while (end < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[end])))
      ++end;
    json.replace(begin, end - begin, mask);
  }
  return json;
}

TEST(ObsRecorder, ChromeJsonKnownAnswer) {
  obs::TraceRecorder recorder;
  recorder.record_span("classify \"pool\"\n", make_context(31, 171, 0), 100,
                       50,
                       {{"node_ip", "10.0.0.1"},
                        {"note", "tab\there \"q\" back\\slash\x01"},
                        {"margin", 0.25},
                        {"snapshots", 51}});
  recorder.record_span("vote", make_context(31, 172, 171), 120, 7, {});
  recorder.record_span("plain", obs::TraceContext{}, 200, 10, {});
  // Instants are stamped with the recorder clock: anchor its epoch and
  // let 1 ms pass, so the instant sorts after the explicit span stamps.
  (void)obs::recorder_epoch_wall_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  recorder.record_instant("log.line", make_context(31, 173, 171),
                          {{"log", "a=1 b=\"x y\""}});

  const auto masked = [](const std::string& json) {
    return mask_digits_after(
        mask_digits_after(json, "\"epochWallUs\":", "E"),
        "\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":", "T");
  };
  const std::string classify_event =
      "\n{\"name\":\"classify \\\"pool\\\"\\n\",\"cat\":\"appclass\","
      "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100,\"dur\":50,"
      "\"args\":{\"trace_id\":\"1f\",\"span_id\":\"ab\","
      "\"parent_span_id\":\"0\",\"node_ip\":\"10.0.0.1\","
      "\"note\":\"tab\\there \\\"q\\\" back\\\\slash\\u0001\","
      "\"margin\":\"0.25\",\"snapshots\":\"51\"}}";
  const std::string newer_events =
      "\n{\"name\":\"vote\",\"cat\":\"appclass\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":120,\"dur\":7,\"args\":{\"trace_id\":\"1f\","
      "\"span_id\":\"ac\",\"parent_span_id\":\"ab\"}},"
      "\n{\"name\":\"plain\",\"cat\":\"appclass\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":200,\"dur\":10,\"args\":{}},"
      "\n{\"name\":\"log.line\",\"cat\":\"appclass\",\"ph\":\"i\","
      "\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":T,\"args\":{"
      "\"trace_id\":\"1f\",\"span_id\":\"ad\",\"parent_span_id\":\"ab\","
      "\"log\":\"a=1 b=\\\"x y\\\"\"}}";
  const std::string header =
      "{\"displayTimeUnit\":\"ms\",\"epochWallUs\":E,\"traceEvents\":[";

  const std::string full = recorder.to_chrome_json();
  EXPECT_EQ(masked(full),
            header + classify_event + "," + newer_events + "\n]}\n");

  // One byte short of the whole document: the oldest event goes, and
  // the envelope counts it.
  const std::string capped = recorder.to_chrome_json(full.size() - 1);
  EXPECT_LE(capped.size(), full.size() - 1);
  EXPECT_EQ(masked(capped),
            header + newer_events + "\n],\"droppedEvents\":1}\n");
}

TEST(ObsRecorder, ClearEmptiesEveryRing) {
  obs::TraceRecorder recorder;
  recorder.record_span("a", make_context(1, 1, 0), 1, 1, {});
  EXPECT_EQ(recorder.size(), 1u);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  // Rings stay usable after a clear.
  recorder.record_span("b", make_context(1, 2, 0), 2, 1, {});
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(ObsRecorder, DumpToFileWritesTheJson) {
  obs::TraceRecorder recorder;
  recorder.record_span("dumped", make_context(1, 1, 0), 1, 1, {});
  const std::string path =
      ::testing::TempDir() + "appclass_recorder_dump.json";
  ASSERT_TRUE(recorder.dump_to_file(path));
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.to_chrome_json());
  std::remove(path.c_str());
}

TEST(ObsRecorderDeathTest, CrashDumpWritesFlightRecorderPostMortem) {
  const std::string path =
      ::testing::TempDir() + "appclass_crash_dump.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        obs::install_crash_dump(path);
        obs::TraceRecorder::global().record_span(
            "doomed_span", make_context(11, 12, 0), 1, 1, {});
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler did not write " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("doomed_span"), std::string::npos);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace appclass
