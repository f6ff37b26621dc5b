// Shared pieces of the repository benchmark: run arguments, sample
// statistics, the result line, the in-memory span tracer, and the seeded
// inputs every workload is built from.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "metrics/snapshot.hpp"

namespace perfbench {

using namespace appclass;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), in nanoseconds.
std::int64_t process_cpu_ns() noexcept;

/// CPU time of the calling thread, in nanoseconds. Unlike wall time it
/// leaves out the time the host runs other guests on this core (steal),
/// which on a shared host swings from run to run.
std::int64_t thread_cpu_ns() noexcept;

/// CPU clocks of every thread of the process, and a clock's reading in
/// nanoseconds.
std::vector<clockid_t> thread_clocks();
std::int64_t clock_ns(clockid_t clock) noexcept;

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb() noexcept;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for the model file and state directories.
  std::string workdir;
  /// Self-test only: perturb one reference value so every gate must fail.
  bool corrupt_reference = false;
};

/// A bag of measurements; quantiles by linear interpolation.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t count() const noexcept { return values_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;
  double sum() const;
  double mean() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Cold set-up repetitions spread evenly over a stretch of the run, so
/// their median sees the host as the rest of the run saw it rather than
/// one brief moment of it. Poll between units of measured work.
class SpacedSetups {
 public:
  SpacedSetups(std::size_t reps, double seconds)
      : reps_(reps),
        interval_ns_(static_cast<std::int64_t>(seconds * 1e9) /
                     static_cast<std::int64_t>(reps)),
        next_ns_(now_ns()) {}

  /// Runs one repetition if it is due. `setup` returns its own cold
  /// set-up time in seconds (tear-down excluded).
  template <typename Fn>
  void poll(Fn&& setup) {
    if (done() || now_ns() < next_ns_) return;
    next_ns_ += interval_ns_;
    samples_.add(setup());
  }
  /// Runs the repetitions still owed.
  template <typename Fn>
  void finish(Fn&& setup) {
    while (!done()) samples_.add(setup());
  }
  bool done() const noexcept { return samples_.count() >= reps_; }
  double median() const { return samples_.median(); }

 private:
  std::size_t reps_;
  std::int64_t interval_ns_;
  std::int64_t next_ns_;
  Samples samples_;
};

/// The benchmark's last output line, plus the failure accounting behind
/// `correct`, `attempted` and `failed`.
class Result {
 public:
  explicit Result(bool trace);

  void set(std::string_view name, double value);
  /// A percentile metric together with its `<name>_samples` count.
  void set_quantile(std::string_view name, double value, std::size_t samples);

  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Counts `n` failed operations of kind `what` (no-op for n == 0).
  void fail(std::uint64_t n, std::string_view what);
  /// A correctness gate: a false `ok` fails the run.
  void gate(bool ok, std::string_view what);

  bool correct() const noexcept { return correct_; }
  /// Prints the JSON line; every metric of the active list must be set
  /// (end-to-end) or defaults to 0 (per-layer metrics a workload does not
  /// load).
  void print() const;

 private:
  bool trace_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;  // kinds already reported
};

/// Layers of the snapshot path, named after the repository's modules.
enum class Layer : std::uint8_t {
  kBench, kMonitor, kEngine, kCore, kObs, kPersist, kDist, kCount
};

/// Span recorder for the traced run. Spans live in per-thread buffers
/// (capped; the aggregates below cover every span regardless) and are
/// written out once at the end. Self time — a span's duration minus the
/// time its child spans on the same thread cover — is summed per layer
/// as spans close.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Registers a span name once, before any thread records it.
  std::uint16_t name(std::string_view name, Layer layer);

  /// Identifier shared by every span of one snapshot or frame.
  static std::uint64_t id(std::uint64_t shard, std::uint64_t seq) noexcept {
    return (shard << 48) | (seq & ((std::uint64_t{1} << 48) - 1));
  }

  /// RAII span; inert while tracing is off. When `out_ns` is given the
  /// span's duration is also stored there as it closes.
  class Scope {
   public:
    Scope(std::uint16_t name, std::uint64_t id,
          std::int64_t* out_ns = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
    std::int64_t* out_ns_ = nullptr;
  };

  /// Sets the per-layer self time (`trace.self_ms.<layer>`) and span
  /// count metrics, and writes every kept span to `path` as TSV (name,
  /// layer, shard, seq, thread, start_ns, end_ns); nesting follows from
  /// the intervals on each thread.
  void report(Result& result, const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint16_t name;
  };
  struct Open {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint16_t name;
    std::uint64_t id;
  };
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self{};
    std::uint64_t closed = 0;
  };
  ThreadBuffer& buffer();

  std::atomic<bool> enabled_{false};
  /// Filled by name() before any thread records; read without the lock.
  std::vector<std::pair<std::string, Layer>> names_;
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// --- Seeded inputs -----------------------------------------------------

/// Trains the classifier from `seed`, saves it with
/// core::save_pipeline_file and returns the path.
std::string write_model(const std::string& workdir, std::uint64_t seed);

/// One catalog program's full 1 Hz announcement stream on its VM.
struct RecordedStream {
  std::string program;
  std::vector<metrics::Snapshot> announcements;
};

/// Records every catalog program once, seeded from `seed`.
std::vector<RecordedStream> record_catalog(std::uint64_t seed);

/// A fleet of `nodes` synthetic nodes, each replaying one recorded stream
/// from its own phase offset, so classes and behaviour changes mix.
class FleetSource {
 public:
  FleetSource(const std::vector<RecordedStream>& streams, std::size_t nodes,
              std::uint64_t seed);

  std::size_t nodes() const noexcept { return ips_.size(); }
  const std::string& ip(std::size_t node) const { return ips_[node]; }

  /// Overwrites `out` with node `node`'s announcement at time `t`
  /// (node_ip is assigned only when it differs, so a per-node scratch
  /// snapshot is filled without allocating).
  void fill(std::size_t node, metrics::SimTime t, metrics::Snapshot& out) const;

 private:
  const std::vector<RecordedStream>& streams_;
  std::vector<std::string> ips_;
  std::vector<std::uint32_t> stream_of_;
  std::vector<std::uint32_t> offset_;
};

/// Field-by-field, bit-exact comparison of two online states.
bool same_state(const core::OnlineStateImage& a,
                const core::OnlineStateImage& b);

void run_stream_fleet(const Args& args, Result& result);
void run_batch_catalog(const Args& args, Result& result);
void run_durable_fleet(const Args& args, Result& result);

}  // namespace perfbench
