#include "obs/metrics.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace appclass::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  APPCLASS_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe_many(double value, std::uint64_t n) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  const double delta = value * static_cast<double>(n);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  exemplar_value_.store(0.0, std::memory_order_relaxed);
  exemplar_trace_.store(0, std::memory_order_relaxed);
}

const std::vector<double>& default_time_buckets() {
  // 1-2-5 per decade, 1 µs .. 10 s.
  static const std::vector<double> buckets = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
  return buckets;
}

std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x01');
    key.append(k);
    key.push_back('\x02');
    key.append(v);
  }
  return key;
}

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

struct MetricsRegistry::Entry {
  enum class Kind { kCounter, kGauge, kHistogram } kind;
  std::string name;
  Labels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                   const Labels& labels) {
  // Caller holds mutex_.
  const std::string key = series_key(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->name = std::string(name);
    entry->labels = labels;
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_for(name, sorted(labels));
  if (!e.counter) {
    APPCLASS_EXPECTS(!e.gauge && !e.histogram);
    e.kind = Entry::Kind::kCounter;
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_for(name, sorted(labels));
  if (!e.gauge) {
    APPCLASS_EXPECTS(!e.counter && !e.histogram);
    e.kind = Entry::Kind::kGauge;
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry_for(name, sorted(labels));
  if (!e.histogram) {
    APPCLASS_EXPECTS(!e.counter && !e.gauge);
    e.kind = Entry::Kind::kHistogram;
    e.histogram = std::make_unique<Histogram>(bounds);
  }
  return *e.histogram;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot out;
  // std::map iteration order gives the sorted-by-(name, labels) contract.
  for (const auto& [key, entry] : entries_) {
    switch (entry->kind) {
      case Entry::Kind::kCounter:
        out.counters.push_back(
            {entry->name, entry->labels, entry->counter->value()});
        break;
      case Entry::Kind::kGauge:
        out.gauges.push_back(
            {entry->name, entry->labels, entry->gauge->value()});
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        HistogramSnapshot hs;
        hs.name = entry->name;
        hs.labels = entry->labels;
        hs.bounds = h.bounds();
        hs.bucket_counts.reserve(hs.bounds.size() + 1);
        for (std::size_t i = 0; i <= hs.bounds.size(); ++i)
          hs.bucket_counts.push_back(h.bucket_count(i));
        hs.count = h.count();
        hs.sum = h.sum();
        hs.exemplar_value = h.exemplar_value();
        hs.exemplar_trace_id = h.exemplar_trace_id();
        out.histograms.push_back(std::move(hs));
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, entry] : entries_) {
    switch (entry->kind) {
      case Entry::Kind::kCounter:
        entry->counter->reset();
        break;
      case Entry::Kind::kGauge:
        entry->gauge->reset();
        break;
      case Entry::Kind::kHistogram:
        entry->histogram->reset();
        break;
    }
  }
}

const CounterSnapshot* RegistrySnapshot::find_counter(
    std::string_view name, const Labels& labels) const {
  const Labels want = sorted(labels);
  for (const auto& c : counters)
    if (c.name == name && c.labels == want) return &c;
  return nullptr;
}

const HistogramSnapshot* RegistrySnapshot::find_histogram(
    std::string_view name, const Labels& labels) const {
  const Labels want = sorted(labels);
  for (const auto& h : histograms)
    if (h.name == name && h.labels == want) return &h;
  return nullptr;
}

}  // namespace appclass::obs
