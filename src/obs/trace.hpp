// Dapper-style trace-context propagation for the classification stack.
//
// A *trace* is one causally-linked tree of spans — e.g. one classified
// snapshot pool: a `classify` root with pca_project/knn_query/vote
// children, whose `engine_shard` grandchildren may have run on
// stolen shards on other thread-pool workers. Context lives in a
// thread-local (`current_trace_context`); cross-thread edges are made by
// capturing the context at job submission and adopting it on the worker
// (`ScopedTraceContext`), which the engine ThreadPool does for every
// parallel_for task.
//
// Every timed region is one TraceSpan. Bound to a histogram, a span
// reads steady_clock exactly twice and observes the histogram once with
// that reading, traced or not; under tracing the same reading becomes
// the histogram's exemplar and the recorded span's duration, so an
// exemplar is always one of its histogram's observations.
//
// Cost contract: tracing is off by default. An unbound span then costs
// one relaxed atomic load, so the k-NN hot path pays a predictable
// branch and nothing else; a bound span adds its clock pair and one
// histogram observation. When tracing is on, finished spans are recorded
// into the per-thread flight-recorder ring (obs/recorder.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::obs {

/// W3C-trace-context-shaped identity of one span. Ids are process-unique
/// non-zero integers; trace_id == 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

/// Process-wide tracing switch (relaxed atomic; default off).
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// Reads APPCLASS_TRACE (1/true/on enables tracing).
void configure_tracing_from_env();

/// The calling thread's ambient context (inactive when no span is open
/// and nothing was adopted).
TraceContext current_trace_context() noexcept;

/// RAII adoption of a context captured on another thread: installs
/// `adopted` as this thread's ambient context so spans opened underneath
/// parent to the submitting span, and restores the previous ambient
/// context on destruction. The engine ThreadPool wraps every task in one.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& adopted) noexcept;
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// The one histogram family every pipeline stage reports to:
/// `appclass_stage_seconds{stage=<name>}` on the global registry.
Histogram& stage_histogram(std::string_view stage);

/// RAII span, the one primitive for a timed region: opens as a child of
/// the thread's ambient context (or as a new trace root when none is
/// active), becomes the ambient context for its scope, and on
/// destruction records itself into the flight recorder. With tracing
/// off it neither records nor touches the ambient context.
class TraceSpan {
 public:
  /// `histogram`, when given, is observed once with the span's duration:
  /// at stop()/stop_per_item() or else at scope exit. When tracing is on,
  /// that observation is also the histogram's exemplar, tagged with this
  /// span's trace id.
  explicit TraceSpan(std::string_view name, Histogram* histogram = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span will be recorded (tracing was enabled at
  /// construction). Guard expensive attribute computation on it.
  bool recording() const noexcept { return recording_; }

  /// Attaches a structured attribute; dropped when not recording.
  /// Attributes added after stop() are kept but not timed.
  void add_attr(Attr attr);

  /// Fixes the end reading now, observes the histogram and returns the
  /// elapsed seconds (0 for an untimed span: no histogram, tracing off).
  /// The span is still recorded at scope exit, with this end reading.
  double stop() noexcept { return finish(1); }

  /// The batched-loop form of stop(): observes `items` observations of
  /// (elapsed / items), one clock pair for the whole loop. Observes
  /// nothing for items == 0.
  void stop_per_item(std::uint64_t items) noexcept { (void)finish(items); }

  const TraceContext& context() const noexcept { return context_; }

 private:
  using Clock = std::chrono::steady_clock;

  double finish(std::uint64_t items) noexcept;

  bool recording_ = false;
  bool stopped_ = false;
  TraceContext context_;
  TraceContext saved_;
  std::string name_;
  Histogram* histogram_ = nullptr;
  Clock::time_point start_;
  Clock::time_point end_;
  std::vector<Attr> attrs_;
};

}  // namespace appclass::obs
