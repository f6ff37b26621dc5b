#include "obs/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>

#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"

namespace appclass::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// Monotonic and wall-clock views of the same instant: the monotonic
/// half timestamps events, the wall half anchors this process's dump on
/// a fleet-wide time axis (see obs/chrome_trace.hpp).
struct EpochAnchor {
  Clock::time_point steady;
  std::int64_t wall_us;
};

const EpochAnchor& recorder_epoch() noexcept {
  static const EpochAnchor epoch = [] {
    EpochAnchor anchor;
    anchor.steady = Clock::now();
    anchor.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    return anchor;
  }();
  return epoch;
}

}  // namespace

std::int64_t trace_us(Clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t - recorder_epoch().steady)
      .count();
}

std::int64_t recorder_epoch_wall_us() noexcept {
  return recorder_epoch().wall_us;
}

/// One thread's ring. `mutex` is uncontended on the record path (only the
/// owner records; dumpers lock briefly and rarely), so recording stays a
/// constant-time local operation.
struct TraceRecorder::ThreadRing {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::size_t capacity = kDefaultThreadCapacity;
  std::vector<TraceEvent> ring;  // size() <= capacity
  std::uint64_t total = 0;       // events ever recorded; slot = total % cap

  void push(TraceEvent event) {
    const std::lock_guard lock(mutex);
    if (ring.size() < capacity) {
      ring.push_back(std::move(event));
    } else {
      ring[static_cast<std::size_t>(total % capacity)] = std::move(event);
    }
    ++total;
  }

  /// Events oldest-first (unwrapping the ring).
  void copy_into(std::vector<TraceEvent>& out) {
    const std::lock_guard lock(mutex);
    if (ring.size() < capacity || total <= capacity) {
      out.insert(out.end(), ring.begin(), ring.end());
      return;
    }
    const std::size_t head = static_cast<std::size_t>(total % capacity);
    out.insert(out.end(),
               ring.begin() + static_cast<std::ptrdiff_t>(head), ring.end());
    out.insert(out.end(), ring.begin(),
               ring.begin() + static_cast<std::ptrdiff_t>(head));
  }
};

TraceRecorder::TraceRecorder() : instance_id_([] {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  // Anchor the epoch no later than the first recorder touch.
  (void)recorder_epoch();
  return recorder;
}

TraceRecorder::ThreadRing& TraceRecorder::ring_for_this_thread() {
  // One cached ring per (thread, recorder). Tests construct their own
  // recorders, so the cache must not leak rings across instances — keyed
  // by instance id, not address, to survive allocator address reuse.
  thread_local std::uint64_t cached_owner = 0;
  thread_local std::shared_ptr<ThreadRing> cached;
  if (cached_owner != instance_id_) {
    auto ring = std::make_shared<ThreadRing>();
    {
      const std::lock_guard lock(mutex_);
      ring->tid = next_tid_++;
      ring->capacity = std::max<std::size_t>(1, capacity_);
      rings_.push_back(ring);
    }
    cached = std::move(ring);
    cached_owner = instance_id_;
  }
  return *cached;
}

void TraceRecorder::record_span(std::string_view name,
                                const TraceContext& context,
                                std::int64_t ts_us, std::int64_t dur_us,
                                std::vector<Attr> attrs) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kSpan;
  event.name = name;
  event.context = context;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.attrs = std::move(attrs);
  ThreadRing& ring = ring_for_this_thread();
  event.tid = ring.tid;
  ring.push(std::move(event));
}

void TraceRecorder::record_instant(std::string_view name,
                                   const TraceContext& context,
                                   std::vector<Attr> attrs) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = name;
  event.context = context;
  event.ts_us = trace_us(Clock::now());
  event.attrs = std::move(attrs);
  ThreadRing& ring = ring_for_this_thread();
  event.tid = ring.tid;
  ring.push(std::move(event));
}

void TraceRecorder::set_thread_capacity(std::size_t capacity) {
  const std::lock_guard lock(mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard lock(mutex_);
    rings = rings_;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) ring->copy_into(out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::size_t TraceRecorder::size() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard lock(mutex_);
    rings = rings_;
  }
  std::size_t total = 0;
  for (const auto& ring : rings) {
    const std::lock_guard lock(ring->mutex);
    total += ring->ring.size();
  }
  return total;
}

void TraceRecorder::clear() {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    const std::lock_guard lock(mutex_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    const std::lock_guard lock(ring->mutex);
    ring->ring.clear();
    ring->total = 0;
  }
}

namespace {

/// A recorded event in the Chrome dialect: spans as "X" complete events,
/// instants as thread-scoped "i" events, all in pid 1, with the ids (in
/// hex) and then the attributes as string args.
ChromeTraceEvent to_chrome_event(TraceEvent& e) {
  const bool span = e.phase == TraceEvent::Phase::kSpan;
  ChromeTraceEvent out{.name = std::move(e.name),
                       .cat = "appclass",
                       .ph = span ? "X" : "i",
                       .scope = span ? "" : "t",
                       .pid = 1,
                       .tid = e.tid,
                       .ts = e.ts_us,
                       .dur = e.dur_us,
                       .has_dur = span,
                       .args = {}};
  if (e.context.active()) {
    const TraceContext& ids = e.context;
    out.args.emplace_back("trace_id", json_quoted(hex_id(ids.trace_id)));
    out.args.emplace_back("span_id", json_quoted(hex_id(ids.span_id)));
    out.args.emplace_back("parent_span_id",
                          json_quoted(hex_id(ids.parent_span_id)));
  }
  for (Attr& attr : e.attrs)
    out.args.emplace_back(std::move(attr.key), json_quoted(attr.value));
  return out;
}

}  // namespace

std::string TraceRecorder::to_chrome_json(std::size_t max_bytes) const {
  ChromeTrace trace;
  trace.epoch_wall_us = recorder_epoch_wall_us();
  std::vector<TraceEvent> all = events();
  trace.events.reserve(all.size());
  for (TraceEvent& e : all) trace.events.push_back(to_chrome_event(e));
  return write_chrome_trace(trace, max_bytes);
}

bool TraceRecorder::dump_to_file(const std::string& path) const {
  const std::string json = to_chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

namespace {

/// Crash-dump destination; plain chars so the handler reads it without
/// taking locks. Written once before the handlers are armed.
char g_crash_path[512] = {0};

extern "C" void appclass_crash_handler(int signum) {
  // Post-mortem best effort: fopen/fprintf are not async-signal-safe,
  // but the process is dying anyway and a partially written dump beats
  // no dump. Restore the default disposition first so a second fault
  // inside the dumper terminates instead of recursing.
  std::signal(signum, SIG_DFL);
  if (g_crash_path[0] != 0)
    (void)TraceRecorder::global().dump_to_file(g_crash_path);
  std::raise(signum);
}

}  // namespace

void install_crash_dump(const std::string& path) {
  std::snprintf(g_crash_path, sizeof g_crash_path, "%s", path.c_str());
  std::signal(SIGSEGV, appclass_crash_handler);
  std::signal(SIGBUS, appclass_crash_handler);
  std::signal(SIGABRT, appclass_crash_handler);
}

}  // namespace appclass::obs
