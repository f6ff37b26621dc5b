#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "linalg/random.hpp"
#include "monitor/harness.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Every workload measures each of them; what
// snapshots_per_s and latency_p50_ms time on each workload is listed in
// README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mb", "MB"},
    {"snapshots_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

// Printed with --trace 1. A workload that does not load a layer reports
// its metrics as 0 with a sample count of 0.
constexpr MetricSpec kPerLayer[] = {
    {"monitor.announce_ns", "ns"},
    {"monitor.announces", "count"},
    {"engine.drain_ms_p50", "ms"},
    {"engine.drain_ms_p99", "ms"},
    {"engine.drain_ms_samples", "count"},
    {"engine.drain_snapshots", "count"},
    {"engine.drain_residual_ns", "ns"},
    {"engine.backlog_peak", "count"},
    {"engine.dropped", "count"},
    {"engine.push_us_p50", "us"},
    {"engine.push_us_p99", "us"},
    {"engine.push_us_samples", "count"},
    {"engine.pool_efficiency", "ratio"},
    {"core.model_load_ms", "ms"},
    {"core.classify_into_ns", "ns"},
    {"core.online_ingest_ns", "ns"},
    {"core.side_pass_snapshots", "count"},
    {"core.classify_pool_ms_p50", "ms"},
    {"core.classify_pool_ms_p99", "ms"},
    {"core.classify_pool_ms_samples", "count"},
    {"core.pool_ns_per_snapshot", "ns"},
    {"obs.health_ingest_ns", "ns"},
    {"persist.wal_append_us_p50", "us"},
    {"persist.wal_append_us_p99", "us"},
    {"persist.wal_append_us_samples", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.checkpoint_load_ms", "ms"},
    {"persist.wal_scan_ns", "ns"},
    {"persist.replay_ns", "ns"},
    {"persist.wal_bytes_per_record", "B"},
    {"persist.recover_ms", "ms"},
    {"persist.recover_samples", "count"},
    {"dist.send_us_p50", "us"},
    {"dist.send_us_p99", "us"},
    {"dist.send_us_samples", "count"},
    {"dist.ack_notice_ms_p50", "ms"},
    {"dist.ack_notice_ms_samples", "count"},
    {"dist.shard_skew", "ratio"},
    {"dist.ack_ms_p99", "ms"},
    {"dist.ack_ms_max", "ms"},
    {"dist.ack_ms_samples", "count"},
    {"dist.flush_ms", "ms"},
    {"dist.reconnects", "count"},
    {"dist.duplicates", "count"},
    {"dist.protocol_errors", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.late_ms_max", "ms"},
    {"gen.late_ms_samples", "count"},
    {"bench.trace_overhead_pct", "%"},
    {"trace.self_ms.bench", "ms"},
    {"trace.self_ms.monitor", "ms"},
    {"trace.self_ms.engine", "ms"},
    {"trace.self_ms.core", "ms"},
    {"trace.self_ms.obs", "ms"},
    {"trace.self_ms.persist", "ms"},
    {"trace.self_ms.dist", "ms"},
    {"trace.spans", "count"},
};

constexpr const char* kLayerNames[] = {"bench", "monitor", "engine", "core",
                                       "obs",   "persist", "dist"};

}  // namespace

std::int64_t clock_ns(clockid_t clock) noexcept {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::vector<clockid_t> thread_clocks() {
  std::vector<clockid_t> clocks;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    const auto tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
    // Linux's per-thread CPU clock id for a thread id (the encoding
    // pthread_getcpuclockid returns): ~tid << 3 | CPUCLOCK_PERTHREAD |
    // CPUCLOCK_SCHED.
    clocks.push_back(static_cast<clockid_t>((~tid << 3) | 6));
  }
  return clocks;
}

double peak_rss_mb() noexcept {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Samples -----------------------------------------------------------

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

// --- Result ------------------------------------------------------------

Result::Result(bool trace) : trace_(trace) {}

void Result::set(std::string_view name, double value) {
  for (auto& [n, v] : values_)
    if (n == name) {
      v = value;
      return;
    }
  values_.emplace_back(std::string(name), value);
}

void Result::set_quantile(std::string_view name, double value,
                          std::size_t samples) {
  set(name, value);
  const std::string base(name.substr(0, name.rfind('_')));
  set(base + "_samples", static_cast<double>(samples));
}

void Result::fail(std::uint64_t n, std::string_view what) {
  if (n == 0) return;
  failed_ += n;
  correct_ = false;
  // Report each kind of failure once; the count carries the rest.
  for (const std::string& seen : failures_)
    if (seen == what) return;
  failures_.emplace_back(what);
  std::fprintf(stderr, "perfbench: FAILED %.*s\n",
               static_cast<int>(what.size()), what.data());
}

void Result::gate(bool ok, std::string_view what) {
  attempt(1);
  if (!ok) fail(1, what);
}

void Result::print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted_, 1)),
                static_cast<unsigned long long>(failed_));
  out += buf;
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    double value = 0.0;
    bool found = false;
    for (const auto& [n, v] : values_)
      if (n == spec.name) {
        value = v;
        found = true;
      }
    if (!found && !trace_) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      std::exit(3);
    }
    if (!std::isfinite(value)) value = 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    out += buf;
    first = false;
  };
  if (trace_)
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  else
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Tracer ------------------------------------------------------------

namespace {
// Per-thread span buffer cap: bounds the traced run's memory (~40 B per
// span). Aggregates keep counting past it.
constexpr std::size_t kSpansPerThread = 1u << 20;
thread_local void* t_buffer = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint16_t Tracer::name(std::string_view name, Layer layer) {
  const std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i].first == name) return static_cast<std::uint16_t>(i);
  names_.emplace_back(std::string(name), layer);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(4096);
    const std::lock_guard lock(mutex_);
    t_buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *static_cast<ThreadBuffer*>(t_buffer);
}

Tracer::Scope::Scope(std::uint16_t name, std::uint64_t id,
                     std::int64_t* out_ns)
    : out_ns_(out_ns) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  ThreadBuffer& buf = tracer.buffer();
  buf.stack.push_back(Open{now_ns(), 0, name, id});
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  Tracer& tracer = Tracer::instance();
  ThreadBuffer& buf = tracer.buffer();
  const Open open = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t duration = end - open.start_ns;
  if (out_ns_ != nullptr) *out_ns_ = duration;
  const Layer layer = tracer.names_[open.name].second;
  buf.self[static_cast<std::size_t>(layer)] += duration - open.child_ns;
  ++buf.closed;
  if (!buf.stack.empty()) buf.stack.back().child_ns += duration;
  if (buf.spans.size() < kSpansPerThread)
    buf.spans.push_back(Span{open.id, open.start_ns, end, open.name});
}

void Tracer::report(Result& result, const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self{};
  std::uint64_t spans = 0;
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < self.size(); ++i) self[i] += buf->self[i];
    spans += buf->closed;
  }
  for (std::size_t i = 0; i < self.size(); ++i)
    result.set(std::string("trace.self_ms.") + kLayerNames[i],
               static_cast<double>(self[i]) * 1e-6);
  result.set("trace.spans", static_cast<double>(spans));

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "name\tlayer\tshard\tseq\tthread\tstart_ns\tend_ns\n");
  for (std::size_t t = 0; t < buffers_.size(); ++t)
    for (const Span& s : buffers_[t]->spans)
      std::fprintf(f, "%s\t%s\t%llu\t%llu\t%zu\t%lld\t%lld\n",
                   names_[s.name].first.c_str(),
                   kLayerNames[static_cast<std::size_t>(names_[s.name].second)],
                   static_cast<unsigned long long>(s.id >> 48),
                   static_cast<unsigned long long>(
                       s.id & ((std::uint64_t{1} << 48) - 1)),
                   t, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
  std::fclose(f);
}

// --- Inputs ------------------------------------------------------------

std::string write_model(const std::string& workdir, std::uint64_t seed) {
  core::TrainingSetup setup;
  setup.seed = linalg::derive_seed(seed, 1);
  const core::ClassificationPipeline pipeline =
      core::make_trained_pipeline({}, setup);
  const std::string path = workdir + "/model.txt";
  core::save_pipeline_file(pipeline, path);
  return path;
}

std::vector<RecordedStream> record_catalog(std::uint64_t seed) {
  std::vector<RecordedStream> streams;
  std::uint64_t index = 0;
  for (const std::string& program : workloads::catalog_names()) {
    sim::TestbedOptions options;
    options.seed = linalg::derive_seed(seed, 100 + index++);
    options.four_vms = false;
    sim::Testbed tb = sim::make_testbed(options);
    monitor::ClusterMonitor mon(*tb.engine);
    RecordedStream stream{program, {}};
    const std::string ip = tb.engine->vm(tb.vm1).spec().ip;
    const monitor::SubscriptionId sub =
        mon.bus().subscribe([&](const metrics::Snapshot& s) {
          if (s.node_ip == ip) stream.announcements.push_back(s);
        });
    auto model = workloads::make_by_name(program, static_cast<int>(tb.vm4));
    if (model == nullptr)
      throw std::runtime_error("unknown catalog program " + program);
    const sim::InstanceId id = tb.engine->submit(tb.vm1, std::move(model));
    const sim::SimTime deadline = tb.engine->now() + 20'000;
    while (tb.engine->instance(id).state != sim::InstanceState::kFinished &&
           tb.engine->now() < deadline)
      tb.engine->step();
    mon.bus().unsubscribe(sub);
    if (stream.announcements.size() < 10)
      throw std::runtime_error("catalog program " + program +
                               " announced too little");
    streams.push_back(std::move(stream));
  }
  return streams;
}

FleetSource::FleetSource(const std::vector<RecordedStream>& streams,
                         std::size_t nodes, std::uint64_t seed)
    : streams_(streams) {
  linalg::Rng rng(linalg::derive_seed(seed, 2));
  ips_.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    ips_.push_back("10." + std::to_string(1 + n / 65536) + "." +
                   std::to_string((n / 256) % 256) + "." +
                   std::to_string(n % 256));
    const auto s = static_cast<std::uint32_t>(n % streams.size());
    stream_of_.push_back(s);
    offset_.push_back(static_cast<std::uint32_t>(
        rng.uniform_index(streams[s].announcements.size())));
  }
}

void FleetSource::fill(std::size_t node, metrics::SimTime t,
                       metrics::Snapshot& out) const {
  const auto& announcements = streams_[stream_of_[node]].announcements;
  const std::size_t i =
      (offset_[node] + static_cast<std::size_t>(t)) % announcements.size();
  out.values = announcements[i].values;
  out.time = t;
  if (out.node_ip != ips_[node]) out.node_ip = ips_[node];
}

bool same_state(const core::OnlineStateImage& a,
                const core::OnlineStateImage& b) {
  if (a.classified != b.classified || a.abstained != b.abstained ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const core::OnlineNodeImage& x = a.nodes[i];
    const core::OnlineNodeImage& y = b.nodes[i];
    if (x.node_ip != y.node_ip || x.window != y.window ||
        x.stable_class != y.stable_class || x.candidate != y.candidate ||
        x.candidate_streak != y.candidate_streak ||
        x.first_time != y.first_time ||
        std::memcmp(&x.coverage, &y.coverage, sizeof x.coverage) != 0)
      return false;
  }
  return true;
}

}  // namespace perfbench
