#include "obs/trace.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/recorder.hpp"

namespace appclass::obs {
namespace {

std::atomic<bool> g_enabled{false};
/// One id space for trace and span ids keeps both process-unique.
std::atomic<std::uint64_t> g_next_id{1};

thread_local TraceContext t_current;

std::uint64_t next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

bool tracing_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on) noexcept {
  // Anchors the recorder epoch before any span reads its start, so no
  // recorded span starts before the epoch.
  if (on) (void)recorder_epoch_wall_us();
  g_enabled.store(on, std::memory_order_relaxed);
}

void configure_tracing_from_env() {
  const char* v = std::getenv("APPCLASS_TRACE");
  if (!v) return;
  set_tracing_enabled(!std::strcmp(v, "1") || !std::strcmp(v, "true") ||
                      !std::strcmp(v, "on"));
}

TraceContext current_trace_context() noexcept { return t_current; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& adopted) noexcept
    : saved_(t_current) {
  t_current = adopted;
}

ScopedTraceContext::~ScopedTraceContext() { t_current = saved_; }

Histogram& stage_histogram(std::string_view stage) {
  return MetricsRegistry::global().histogram(
      "appclass_stage_seconds", {{"stage", std::string(stage)}});
}

TraceSpan::TraceSpan(std::string_view name, Histogram* histogram)
    : histogram_(histogram) {
  if (tracing_enabled()) {
    recording_ = true;
    name_ = name;
    saved_ = t_current;
    context_.trace_id = saved_.active() ? saved_.trace_id : next_id();
    context_.parent_span_id = saved_.active() ? saved_.span_id : 0;
    context_.span_id = next_id();
    t_current = context_;
  } else if (!histogram_) {
    return;
  }
  start_ = Clock::now();
}

TraceSpan::~TraceSpan() {
  (void)finish(1);
  if (!recording_) return;
  t_current = saved_;
  TraceRecorder::global().record_span(
      name_, context_, trace_us(start_),
      std::chrono::duration_cast<std::chrono::microseconds>(end_ - start_)
          .count(),
      std::move(attrs_));
}

double TraceSpan::finish(std::uint64_t items) noexcept {
  if (!stopped_ && (recording_ || histogram_)) {
    stopped_ = true;
    end_ = Clock::now();
    if (histogram_ && items > 0) {
      const double value =
          std::chrono::duration<double>(end_ - start_).count() /
          static_cast<double>(items);
      histogram_->observe_many(value, items);
      if (recording_) histogram_->set_exemplar(value, context_.trace_id);
    }
  }
  return std::chrono::duration<double>(end_ - start_).count();
}

void TraceSpan::add_attr(Attr attr) {
  if (recording_) attrs_.push_back(std::move(attr));
}

}  // namespace appclass::obs
