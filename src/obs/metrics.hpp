// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, in the Prometheus data-model dialect (a metric is a name
// plus a small set of key=value labels).
//
// Concurrency contract:
//   * Registration (MetricsRegistry::counter/gauge/histogram) takes a
//     mutex; call sites cache the returned reference (it is stable for
//     the registry's lifetime) so the hot path never locks.
//   * Updates (inc/set/observe) are lock-free relaxed atomics.
//   * snapshot() reads whatever values are visible at the time; it is a
//     monitoring view, not a linearization point.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace appclass::obs {

/// Sorted-by-construction list of label key/value pairs.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bucket edges in
/// ascending order; an implicit +Inf bucket catches the rest. Sum and
/// count are tracked for mean computation and Prometheus export.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept { observe_many(value, 1); }

  /// Records `n` observations of `value` with one bucket search and three
  /// atomic adds — used by batch stages that time a whole loop and charge
  /// the mean to every item (e.g. per-snapshot k-NN queries).
  void observe_many(double value, std::uint64_t n) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Count in bucket `i` (i == bounds().size() is the +Inf bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

  /// Last exemplar: the most recent observation made under an active
  /// trace, referencing its trace id (obs/trace.hpp writes these on span
  /// end). The two fields are independent relaxed atomics — a torn
  /// (value, id) pair across concurrent traced observations is possible
  /// and acceptable for a monitoring view.
  void set_exemplar(double value, std::uint64_t trace_id) noexcept {
    exemplar_value_.store(value, std::memory_order_relaxed);
    exemplar_trace_.store(trace_id, std::memory_order_relaxed);
  }
  double exemplar_value() const noexcept {
    return exemplar_value_.load(std::memory_order_relaxed);
  }
  /// 0 = no exemplar recorded yet.
  std::uint64_t exemplar_trace_id() const noexcept {
    return exemplar_trace_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> exemplar_value_{0.0};
  std::atomic<std::uint64_t> exemplar_trace_{0};
};

/// Log-spaced latency buckets from 1 µs to 10 s — the default for stage
/// wall-time histograms.
const std::vector<double>& default_time_buckets();

struct CounterSnapshot {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Last traced observation (exemplar); trace id 0 = none recorded.
  double exemplar_value = 0.0;
  std::uint64_t exemplar_trace_id = 0;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// The registry's key for one series: the name, then each label pair
/// behind unprintable separators, so no legal name or label text can
/// collide. Snapshots are sorted by it, and federation merges and sorts
/// parsed series by the same key.
std::string series_key(std::string_view name, const Labels& labels);

/// Point-in-time copy of every registered metric, sorted by (name, labels).
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  const CounterSnapshot* find_counter(std::string_view name,
                                      const Labels& labels = {}) const;
  const HistogramSnapshot* find_histogram(std::string_view name,
                                          const Labels& labels = {}) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out-of-line: Entry is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumented subsystem reports to.
  static MetricsRegistry& global();

  /// Returns the metric registered under (name, labels), creating it on
  /// first use. References stay valid for the registry's lifetime; the
  /// histogram `bounds` are fixed by the first registration.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       const std::vector<double>& bounds =
                           default_time_buckets());

  RegistrySnapshot snapshot() const;

  /// Zeroes every value while keeping all registrations (and therefore
  /// every cached reference) intact. Test-only convenience.
  void reset_values();

 private:
  struct Entry;
  Entry& entry_for(std::string_view name, const Labels& labels);

  mutable std::mutex mutex_;
  // Node-based map: values never move once inserted.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace appclass::obs
