#include "sched/greedy.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/testbed.hpp"
#include "workloads/catalog.hpp"

namespace appclass::sched {
namespace {

struct GreedyMetrics {
  obs::Histogram& place_seconds = obs::stage_histogram("greedy_place");
  obs::Counter& placements = obs::MetricsRegistry::global().counter(
      "appclass_sched_greedy_placements_total");
  obs::Counter& jobs_placed = obs::MetricsRegistry::global().counter(
      "appclass_sched_greedy_jobs_total");
};

GreedyMetrics& greedy_metrics() {
  static GreedyMetrics metrics;
  return metrics;
}

}  // namespace

int overlap_penalty(const PlacementProblem& problem,
                    const Placement& placement) {
  int penalty = 0;
  for (const auto& vm_jobs : placement) {
    std::array<int, core::kClassCount> per_class{};
    for (const std::size_t j : vm_jobs) {
      APPCLASS_EXPECTS(j < problem.jobs.size());
      ++per_class[core::index_of(problem.jobs[j].cls)];
    }
    for (const int c : per_class) penalty += c * (c - 1) / 2;
  }
  return penalty;
}

Placement greedy_place(const PlacementProblem& problem) {
  APPCLASS_EXPECTS(problem.feasible());
  GreedyMetrics& gm = greedy_metrics();
  // One placement decision = one span (exemplar ties the stage histogram
  // back to this trace) with the problem shape and outcome attached.
  obs::TraceSpan span("greedy_place", &gm.place_seconds);
  Placement placement(problem.vm_count);

  // Place the most numerous classes first: they are the hardest to spread.
  std::array<int, core::kClassCount> class_counts{};
  for (const auto& job : problem.jobs)
    ++class_counts[core::index_of(job.cls)];
  std::vector<std::size_t> order(problem.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return class_counts[core::index_of(problem.jobs[a].cls)] >
                            class_counts[core::index_of(problem.jobs[b].cls)];
                   });

  std::vector<std::array<int, core::kClassCount>> vm_class(
      problem.vm_count, std::array<int, core::kClassCount>{});
  for (const std::size_t j : order) {
    const std::size_t cls = core::index_of(problem.jobs[j].cls);
    std::size_t best_vm = problem.vm_count;  // sentinel
    for (std::size_t v = 0; v < problem.vm_count; ++v) {
      if (placement[v].size() >= problem.slots_per_vm) continue;
      if (best_vm == problem.vm_count) {
        best_vm = v;
        continue;
      }
      const int same = vm_class[v][cls];
      const int best_same = vm_class[best_vm][cls];
      if (same < best_same ||
          (same == best_same &&
           placement[v].size() < placement[best_vm].size()))
        best_vm = v;
    }
    APPCLASS_ASSERT(best_vm < problem.vm_count);
    placement[best_vm].push_back(j);
    ++vm_class[best_vm][cls];
  }
  const double seconds = span.stop();
  gm.placements.inc();
  gm.jobs_placed.inc(problem.jobs.size());
  if (span.recording()) {
    span.add_attr({"jobs", problem.jobs.size()});
    span.add_attr({"vms", problem.vm_count});
    span.add_attr({"penalty", overlap_penalty(problem, placement)});
  }
  APPCLASS_LOG_DEBUG("sched.greedy_place", {"jobs", problem.jobs.size()},
                     {"vms", problem.vm_count},
                     {"penalty", overlap_penalty(problem, placement)},
                     {"seconds", seconds});
  return placement;
}

Placement random_place(const PlacementProblem& problem, linalg::Rng& rng) {
  APPCLASS_EXPECTS(problem.feasible());
  // Shuffle the flattened slot list and deal jobs into it.
  std::vector<std::size_t> slots;
  for (std::size_t v = 0; v < problem.vm_count; ++v)
    for (std::size_t s = 0; s < problem.slots_per_vm; ++s)
      slots.push_back(v);
  rng.shuffle(std::span<std::size_t>(slots));
  Placement placement(problem.vm_count);
  for (std::size_t j = 0; j < problem.jobs.size(); ++j)
    placement[slots[j]].push_back(j);
  return placement;
}

std::vector<std::int64_t> simulate_placement(const PlacementProblem& problem,
                                             const Placement& placement,
                                             std::uint64_t seed) {
  APPCLASS_EXPECTS(placement.size() == problem.vm_count);

  sim::Engine engine(seed);
  const sim::HostId host_a = engine.add_host(sim::make_host_a_spec());
  const sim::HostId host_b = engine.add_host(sim::make_host_b_spec());
  std::vector<sim::VmId> vms;
  for (std::size_t v = 0; v < problem.vm_count; ++v) {
    const sim::HostId host = (v % 2 == 0) ? host_a : host_b;
    vms.push_back(engine.add_vm(
        host, sim::make_vm_spec("vm" + std::to_string(v + 1),
                                "10.0.1." + std::to_string(v + 1))));
  }
  // Dedicated network-peer VM on host B.
  const sim::VmId peer = engine.add_vm(
      host_b, sim::make_vm_spec("peer", "10.0.1.200"));

  std::vector<sim::InstanceId> instance_of(problem.jobs.size());
  for (std::size_t v = 0; v < placement.size(); ++v) {
    for (const std::size_t j : placement[v]) {
      auto model = workloads::make_by_name(problem.jobs[j].app,
                                           static_cast<int>(peer));
      APPCLASS_EXPECTS(model != nullptr);
      instance_of[j] = engine.submit(vms[v], std::move(model));
    }
  }
  const bool done = engine.run_until_done(3'000'000);
  APPCLASS_ENSURES(done);

  std::vector<std::int64_t> elapsed(problem.jobs.size());
  for (std::size_t j = 0; j < problem.jobs.size(); ++j)
    elapsed[j] = engine.instance(instance_of[j]).elapsed();
  return elapsed;
}

double placement_throughput(const std::vector<std::int64_t>& elapsed) {
  double total = 0.0;
  for (const std::int64_t e : elapsed) {
    APPCLASS_EXPECTS(e > 0);
    total += 86400.0 / static_cast<double>(e);
  }
  return total;
}

}  // namespace appclass::sched
