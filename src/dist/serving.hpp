// The unified serving API: single-process, shard worker, and coordinator
// are three modes of one library-level surface.
//
// `ServeOptions` is parsed once, by parse_serve_args, for every mode, and
// the roles are three start/stop components that the CLI, tests and
// benches compose in-process:
//
//   * node server — online state, WAL and checkpoints, the scrape routes.
//     kSingle feeds it from a ReplaySource through a MetricBus; kWorker
//     feeds it from a dist::IngestListener socket, acking only after the
//     WAL append, so the coordinator's exactly-once window survives
//     SIGKILL + supervised restart.
//   * coordinator — a ReplaySource sharded by node ip over a
//     dist::ShardMap into dist::WorkerLinks, the federation scraper, and
//     the merge routes: the merged fleet view (/composition, /classes,
//     /appdb, /workers, /replay) assembled from the workers' read-only
//     routes, federated worker metrics (/fleet/metrics, /fleet/workers),
//     the stitched cross-process trace (/fleet/traces), and the
//     multi-window SLO verdict (/slo, folded into /healthz).
//   * ReplaySource (dist/replay.hpp) — the one canonical replay loop
//     both replaying modes announce through.
//
// ServeApp runs one component per process until a signal or --duration,
// optionally under persist::Supervisor. The start and stop order of each
// component is written down once, in docs/serving.md "Lifecycle".
//
// Determinism contract (what the CI topology smoke and the in-process
// fleet test prove): each node ip lives on exactly one shard, per-link
// TCP preserves the coordinator's announce order, and workers ingest
// serially in arrival order — so every node's OnlineClassifier evolves
// exactly as in single-process serve, and the merged composition text is
// byte-identical to the single-process /composition for the same
// --cycles replay.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/online.hpp"
#include "persist/wal.hpp"

namespace appclass::serving {

enum class ServeMode { kSingle, kWorker, kCoordinator };

/// One shard worker, as the coordinator addresses it: the scrape port
/// serves the merge routes, the ingest port accepts snapshot frames.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t scrape_port = 0;
  std::uint16_t ingest_port = 0;
};

struct ServeOptions {
  ServeMode mode = ServeMode::kSingle;
  std::string model_path;
  long long port = 9464;
  long long duration_s = 0;    ///< 0 = run until terminated
  /// Replay cycles before the stream stops and /replay reports complete
  /// (single + coordinator modes; 0 = replay until duration/signal).
  long long cycles = 0;
  long long drift_window = 0;  ///< 0 = DriftOptions default
  /// Empty disables persistence; otherwise the crash-safety state
  /// directory (<dir>/wal + <dir>/checkpoints).
  std::string state_dir;
  persist::WalOptions wal;
  /// Non-empty drains between automatic checkpoints.
  long long checkpoint_every = 16;
  /// FleetStream buffer bound (0 = unbounded).
  long long max_backlog = 0;
  bool supervised = false;
  /// Worker mode: frame listener port (0 = ephemeral).
  long long ingest_port = 0;
  /// Coordinator mode: the shard fleet, in shard-index order.
  std::vector<WorkerEndpoint> workers;
  /// Coordinator mode: worker /metrics scrape period for the federated
  /// /fleet/metrics view; each scrape also feeds the availability SLI.
  long long fleet_scrape_every_ms = 1000;
  /// Coordinator mode: announce->durable latency above this is a bad
  /// freshness event for the SLO verdict (/slo, /healthz).
  long long slo_freshness_ms = 5000;
  /// Coordinator mode: the SLO short burn-rate window in seconds (the
  /// long window is 12x, the classic 5m/1h pairing at the default).
  long long slo_window_s = 300;
  /// Coordinator mode: shared objective percentage for both SLIs
  /// (99 -> 0.99 target good fraction).
  long long slo_objective_pct = 99;
  /// Engine execution width (the CLI forwards its global --threads).
  std::size_t threads = 1;
  core::OnlineOptions online;
};

struct ParseResult {
  /// Set on success; empty means "print nothing more and exit".
  std::optional<ServeOptions> options;
  /// Exit code when options is empty (usage errors print to stderr).
  int exit_code = 2;
};

/// Parses the serve flag vector (everything after the model path) into
/// options, enforcing per-mode flag validity. All error messages go to
/// stderr.
ParseResult parse_serve_args(const std::string& model_path,
                             const std::vector<std::string>& flags);

/// Splits on `sep`, keeping empty items ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split_list(const std::string& text, char sep);

/// Bit of `mode` in IntFlag::modes.
constexpr unsigned mode_bit(ServeMode mode) {
  return 1u << static_cast<unsigned>(mode);
}

/// One row of an integer flag table: `--name=<count>` stored in `field`
/// when it lies in [min, max].
struct IntFlag {
  std::string_view name;  ///< including the trailing '='
  long long* field;
  long long min;
  long long max = std::numeric_limits<long long>::max();
  const char* what;       ///< error text: "bad <what> '<value>'<hint>"
  const char* hint = "";
  unsigned modes = ~0u;   ///< serve modes the flag applies to
};

/// Matches `flag` against `table`. Returns the matched row (nullptr when
/// none matches); `bad` is set, after printing "<prefix>bad <what>
/// '<value>'<hint>" to stderr, when the value is malformed or out of
/// range.
const IntFlag* parse_int_flag(std::span<const IntFlag> table,
                              const std::string& flag, const char* prefix,
                              bool& bad);

/// Canonical plain-text rendering of an OnlineClassifier's state — the
/// /composition route body. Deterministic: nodes in map (lexicographic)
/// order, every counter and window entry included, so two classifiers
/// with equal state render byte-identically.
std::string composition_text(const core::OnlineClassifier& online);

/// Merges per-shard composition texts into the aggregate: node lines
/// pass through verbatim (re-sorted by ip), counters sum. Because each
/// node lives on exactly one shard, the merge of the shard texts equals
/// the single-process text by construction. Throws std::runtime_error
/// on a malformed part or a node ip claimed by two shards.
std::string merge_composition_texts(const std::vector<std::string>& parts);

/// Node ip a replayed canonical run is announced under: run r becomes
/// fleet node "10.0.<r>.1", so the five workloads are five distinct
/// monitored nodes (and shard across workers) instead of one
/// interleaved stream.
std::string replay_node_ip(std::size_t run_index);

/// A serving role with an explicit lifecycle (docs/serving.md
/// "Lifecycle"). Construction loads the model and records the replay;
/// start() recovers, binds and spawns the loops; stop() runs the ordered
/// shutdown and prints the summary. Both are called from one controlling
/// thread.
class Component {
 public:
  virtual ~Component() = default;
  /// False (error printed) leaves nothing running.
  virtual bool start() = 0;
  /// Idempotent; a no-op before start().
  virtual void stop() = 0;
  /// The bound scrape port (resolves port 0); 0 when not running.
  virtual std::uint16_t port() const = 0;
  /// Worker mode: the bound frame-listener port; 0 otherwise.
  virtual std::uint16_t ingest_port() const { return 0; }
  /// Async-signal-safe: aborts blocking retries (a dead worker cannot
  /// wedge shutdown) and marks the shutdown as signalled.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
  }
  bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> stop_requested_{false};
};

/// Single and worker modes: one shard of online state behind the scrape
/// routes, fed by the canonical replay (single) or a dist::IngestListener
/// (worker).
std::unique_ptr<Component> make_node_server(ServeOptions options);

/// Coordinator mode: shards the canonical replay over the workers and
/// serves the merged fleet view and the fleet observability plane.
std::unique_ptr<Component> make_coordinator(ServeOptions options);

class ServeApp {
 public:
  explicit ServeApp(ServeOptions options);

  /// Runs the configured mode's component until SIGTERM/SIGINT or
  /// --duration; with options.supervised, forks it under
  /// persist::Supervisor first. Returns the process exit code.
  int run();

 private:
  int run_mode();

  ServeOptions options_;
};

}  // namespace appclass::serving
