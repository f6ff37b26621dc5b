#include "sched/queue.hpp"

#include <algorithm>

#include <limits>

#include "common/assert.hpp"
#include "linalg/random.hpp"
#include "monitor/harness.hpp"
#include "obs/cardinality.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::sched {
namespace {

struct QueueMetrics {
  obs::Histogram& decision_seconds =
      obs::stage_histogram("dispatch_decision");
  obs::Counter& dispatched = obs::MetricsRegistry::global().counter(
      "appclass_sched_dispatched_total");
  obs::Counter& completed = obs::MetricsRegistry::global().counter(
      "appclass_sched_completed_total");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics metrics;
  return metrics;
}

obs::Counter& placement_counter(std::size_t vm_index) {
  // Bounded per-VM label: a testbed with more VMs than the budget folds
  // the tail into one "other" series instead of growing the registry
  // linearly with fleet size (same policy as the scrape-path counters).
  static obs::BoundedLabelSet vm_labels(32);
  return obs::MetricsRegistry::global().counter(
      "appclass_sched_placements_total",
      {{"vm", vm_labels.admit(std::to_string(vm_index))}});
}

}  // namespace

DispatchPolicy round_robin_policy() {
  return [](const DispatchContext& ctx) {
    return ctx.dispatch_index % ctx.vms.size();
  };
}

DispatchPolicy random_policy(std::uint64_t seed) {
  auto rng = std::make_shared<linalg::Rng>(seed);
  return [rng](const DispatchContext& ctx) {
    return static_cast<std::size_t>(rng->uniform_index(ctx.vms.size()));
  };
}

DispatchPolicy least_loaded_policy() {
  return [](const DispatchContext& ctx) {
    std::size_t best = 0;
    for (std::size_t v = 1; v < ctx.vms.size(); ++v)
      if (ctx.running_per_vm[v] < ctx.running_per_vm[best]) best = v;
    return best;
  };
}

DispatchPolicy class_aware_policy() {
  return [](const DispatchContext& ctx) {
    const PlacementAdvisor advisor(ctx.gmetad);
    const std::size_t cls = core::index_of(ctx.job.cls);
    std::size_t best = 0;
    int best_overlap = std::numeric_limits<int>::max();
    double best_headroom = -1.0;
    for (std::size_t v = 0; v < ctx.vms.size(); ++v) {
      // Same-class jobs on this VM contend hardest; same-class jobs on
      // sibling VMs of the same host still share its physical disk/NIC.
      int overlap = 2 * ctx.running_by_class[v][cls];
      for (std::size_t u = 0; u < ctx.vms.size(); ++u)
        if (u != v && ctx.host_of[u] == ctx.host_of[v])
          overlap += ctx.running_by_class[u][cls];
      double headroom = 0.5;  // neutral until the monitor has data
      if (const auto snapshot = ctx.gmetad.latest(ctx.vm_ips[v]))
        headroom = advisor.headroom(ctx.job.cls, *snapshot);
      // Least class overlap first (the dispatcher's own bookkeeping reacts
      // instantly); live headroom breaks ties.
      if (overlap < best_overlap ||
          (overlap == best_overlap && headroom > best_headroom)) {
        best = v;
        best_overlap = overlap;
        best_headroom = headroom;
      }
    }
    return best;
  };
}

double DispatchOutcome::mean_response() const {
  APPCLASS_EXPECTS(!jobs.empty());
  double sum = 0.0;
  for (const auto& j : jobs) sum += static_cast<double>(j.response_seconds);
  return sum / static_cast<double>(jobs.size());
}

double DispatchOutcome::max_response() const {
  APPCLASS_EXPECTS(!jobs.empty());
  sim::SimTime mx = 0;
  for (const auto& j : jobs) mx = std::max(mx, j.response_seconds);
  return static_cast<double>(mx);
}

double DispatchOutcome::throughput_jobs_per_day() const {
  double total = 0.0;
  for (const auto& j : jobs)
    total += 86400.0 / std::max<double>(1.0,
                                        static_cast<double>(
                                            j.response_seconds));
  return total;
}

DispatchOutcome run_arrival_experiment(std::vector<ArrivingJob> jobs,
                                       const DispatchPolicy& policy,
                                       const ArrivalExperimentOptions&
                                           options) {
  APPCLASS_EXPECTS(!jobs.empty());
  APPCLASS_EXPECTS(options.vm_count >= 1);
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const ArrivingJob& a, const ArrivingJob& b) {
                     return a.arrival < b.arrival;
                   });

  sim::Engine engine(options.seed);
  const auto host_a = engine.add_host(sim::make_host_a_spec());
  const auto host_b = engine.add_host(sim::make_host_b_spec());
  std::vector<sim::VmId> vms;
  std::vector<std::string> vm_ips;
  std::vector<std::size_t> host_of;
  for (std::size_t v = 0; v < options.vm_count; ++v) {
    const std::string ip = "10.0.3." + std::to_string(v + 1);
    vms.push_back(engine.add_vm(v % 2 == 0 ? host_a : host_b,
                                sim::make_vm_spec("w" + std::to_string(v),
                                                  ip)));
    vm_ips.push_back(ip);
    host_of.push_back(v % 2 == 0 ? host_a : host_b);
  }
  const auto peer =
      engine.add_vm(host_b, sim::make_vm_spec("peer", "10.0.3.200"));

  monitor::ClusterMonitor mon(engine);
  monitor::Gmetad gmetad(mon.bus());

  struct Pending {
    std::size_t job_index;
    sim::InstanceId instance;
    std::size_t vm_index;
  };
  std::vector<Pending> dispatched;
  std::vector<int> running_per_vm(options.vm_count, 0);
  std::vector<ClassCounts> running_by_class(options.vm_count, ClassCounts{});

  DispatchOutcome out;
  out.jobs.resize(jobs.size());
  std::size_t next_arrival = 0;
  std::size_t finished = 0;

  while (finished < jobs.size() && engine.now() < options.max_ticks) {
    // Dispatch everything that has arrived by now.
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].arrival <= engine.now()) {
      const ArrivingJob& job = jobs[next_arrival];
      const DispatchContext ctx{job,
                                vms,
                                vm_ips,
                                running_per_vm,
                                running_by_class,
                                host_of,
                                gmetad,
                                next_arrival};
      QueueMetrics& qm = queue_metrics();
      const std::size_t v = [&] {
        obs::TraceSpan span("dispatch_decision", &qm.decision_seconds);
        return policy(ctx);
      }();
      APPCLASS_ENSURES(v < vms.size());
      qm.dispatched.inc();
      placement_counter(v).inc();
      APPCLASS_LOG_TRACE("sched.dispatch", {"job", job.app},
                         {"class", core::to_string(job.cls)}, {"vm", v},
                         {"time", engine.now()});
      auto model = workloads::make_by_name(job.app, static_cast<int>(peer));
      APPCLASS_EXPECTS(model != nullptr);
      const auto instance = engine.submit(vms[v], std::move(model));
      dispatched.push_back(Pending{next_arrival, instance, v});
      ++running_per_vm[v];
      ++running_by_class[v][core::index_of(job.cls)];
      out.jobs[next_arrival] =
          DispatchRecord{job.app, job.cls, job.arrival, v, 0};
      ++next_arrival;
    }

    engine.step();

    // Collect completions.
    for (auto it = dispatched.begin(); it != dispatched.end();) {
      const auto info = engine.instance(it->instance);
      if (info.state == sim::InstanceState::kFinished) {
        out.jobs[it->job_index].response_seconds =
            info.finish_time - jobs[it->job_index].arrival;
        out.makespan = std::max(out.makespan, info.finish_time);
        --running_per_vm[it->vm_index];
        --running_by_class[it->vm_index]
            [core::index_of(out.jobs[it->job_index].cls)];
        ++finished;
        queue_metrics().completed.inc();
        it = dispatched.erase(it);
      } else {
        ++it;
      }
    }
  }
  APPCLASS_ENSURES(finished == jobs.size());
  return out;
}

std::vector<ArrivingJob> make_mixed_arrivals(std::size_t count,
                                             double mean_interarrival_s,
                                             std::uint64_t seed) {
  APPCLASS_EXPECTS(mean_interarrival_s > 0.0);
  linalg::Rng rng(seed);
  std::vector<ArrivingJob> out;
  double t = 0.0;
  while (out.size() < count) {
    // Users submit in bursts of same-type jobs (a parameter sweep, a batch
    // of file conversions): 1-4 jobs of one type arrive close together.
    const std::size_t burst = 1 + rng.uniform_index(4);
    ArrivingJob job;
    switch (rng.uniform_index(3)) {
      case 0:
        job.app = "specseis_small";
        job.cls = core::ApplicationClass::kCpu;
        break;
      case 1:
        job.app = "postmark";
        job.cls = core::ApplicationClass::kIo;
        break;
      default:
        job.app = "netpipe";
        job.cls = core::ApplicationClass::kNetwork;
        break;
    }
    t += rng.exponential(1.0 / mean_interarrival_s);
    for (std::size_t b = 0; b < burst && out.size() < count; ++b) {
      job.arrival = static_cast<sim::SimTime>(t);
      out.push_back(job);
      t += rng.exponential(1.0 / 10.0);  // ~10 s within a burst
    }
  }
  return out;
}

}  // namespace appclass::sched
