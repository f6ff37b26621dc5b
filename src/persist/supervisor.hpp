// Process supervision for the serving path.
//
// Supervisor::run forks the worker into a child process and watches it:
//
//   * a clean exit (code 0) ends supervision;
//   * a crash (non-zero exit or a fatal signal, SIGKILL included) is
//     logged, counted, and restarted after an exponential backoff that
//     resets once a child survives `stable_s`;
//   * `crash_loop_threshold` failures inside `crash_loop_window_s` is a
//     crash loop — the supervisor gives up instead of burning CPU on a
//     worker that can never come up (a poisoned checkpoint, a bad model);
//   * SIGTERM/SIGINT to the supervisor is forwarded to the child, which
//     gets `term_grace_s` to shut down gracefully (the stop order in
//     docs/serving.md "Lifecycle") before SIGKILL.
//
// The child sees APPCLASS_SUPERVISED_RESTARTS in its environment (its
// restart ordinal) so the worker can expose the count on /metrics — the
// supervisor's own registry is invisible to scrapes of the worker.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace appclass::persist {

struct SupervisorOptions {
  double backoff_initial_s = 0.25;
  double backoff_max_s = 8.0;
  double backoff_factor = 2.0;
  /// Failures within crash_loop_window_s that abort supervision.
  std::size_t crash_loop_threshold = 5;
  double crash_loop_window_s = 30.0;
  /// A child alive this long resets the backoff and the crash-loop clock.
  double stable_s = 10.0;
  /// Grace between forwarding SIGTERM and escalating to SIGKILL.
  double term_grace_s = 20.0;
};

struct SupervisorResult {
  /// Exit code of the last worker (128+signal when it died to a signal).
  int exit_code = 0;
  std::size_t restarts = 0;
  bool crash_loop = false;
  /// True when supervision ended because the supervisor was terminated.
  bool terminated = false;
};

/// Name of the restart-ordinal environment variable the child inherits.
inline constexpr const char* kRestartsEnvVar = "APPCLASS_SUPERVISED_RESTARTS";

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options = {});

  /// Runs `worker` under supervision until it exits cleanly, crash-loops,
  /// or the supervisor is terminated. The worker runs in a forked child;
  /// its return value becomes the child's exit code. Must not be called
  /// from a multi-threaded process (fork + threads do not mix).
  SupervisorResult run(const std::function<int()>& worker);

 private:
  SupervisorOptions options_;
};

}  // namespace appclass::persist
