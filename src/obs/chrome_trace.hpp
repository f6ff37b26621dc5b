// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing): the
// one codec for the flight recorder's dumps (obs/recorder.hpp) and the
// fleet's stitched trace.
//
// A document is {"displayTimeUnit":"ms","epochWallUs":<us>,
// "traceEvents":[...]}, plus "droppedEvents":<n> when events were cut.
// `epochWallUs` is the wall-clock instant of the emitting process's
// recorder epoch, the anchor that aligns per-process monotonic
// timestamps on one axis.
//
// stitch_chrome_traces() reassembles per-process dumps into one trace:
// each process gets its own pid lane (with a process_name metadata
// record), and timestamps are aligned across processes via the anchors.
// Sender-side `dist_announce` spans and worker-side `dist_ingest` spans
// share a trace id through the wire header, so the stitched view shows
// one announce crossing process boundaries — the Dapper assembly step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace appclass::obs {

/// One event from a Chrome trace_event dump. `args` values keep their
/// raw JSON text so numbers and strings survive re-serialization.
struct ChromeTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;       ///< "X" span, "i" instant, "M" metadata, ...
  std::string scope;    ///< instant scope ("t"), empty otherwise
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::int64_t ts = 0;  ///< microseconds
  std::int64_t dur = 0;
  bool has_dur = false;
  std::vector<std::pair<std::string, std::string>> args;  ///< key, raw JSON
};

struct ChromeTrace {
  std::vector<ChromeTraceEvent> events;
  /// Wall-clock microseconds of the emitting process's recorder epoch
  /// (`epochWallUs` in the dump); 0 when the dump predates the anchor.
  std::int64_t epoch_wall_us = 0;
  std::uint64_t dropped_events = 0;  ///< truncated by the dump's byte cap
};

/// Parses a Chrome trace_event JSON document ({"traceEvents":[...]}).
/// Tolerates unknown keys at every level; nullopt on syntax errors.
std::optional<ChromeTrace> parse_chrome_trace(std::string_view json);

/// Writes `trace` as one document, events in their given order, each
/// with its keys in the order name, cat, ph, s, pid, tid, ts, dur, args
/// (an empty cat or s and a missing dur are left out). `max_bytes` > 0
/// bounds the document: the leading (oldest) events are dropped until it
/// fits. `droppedEvents` counts those plus `trace.dropped_events` and is
/// written only when non-zero. 0 means unbounded.
std::string write_chrome_trace(const ChromeTrace& trace,
                               std::size_t max_bytes = 0);

/// One process's flight-recorder dump, as fetched from /traces/recent.
struct TraceFleetPart {
  std::string process;  ///< pid-lane display name ("coordinator", ...)
  std::string json;
};

struct StitchResult {
  std::string json;                ///< merged Chrome trace document
  std::size_t parts_stitched = 0;  ///< parts that parsed and were merged
  std::size_t parts_failed = 0;    ///< parts dropped as unparseable
  std::size_t events = 0;          ///< events in the stitched trace
};

/// Stitches per-process dumps into one unbounded Chrome trace: part i's
/// events move to pid i+1 (a process_name metadata record labels the
/// lane), and each part's timestamps shift by its wall-clock epoch so
/// spans from different processes line up on one axis. The result's
/// `epochWallUs` is the earliest anchor and its `droppedEvents` the sum
/// of the parts'. Unparseable parts are skipped and counted, never fatal
/// — a half-stitched fleet trace beats none during an incident.
StitchResult stitch_chrome_traces(const std::vector<TraceFleetPart>& parts);

}  // namespace appclass::obs
