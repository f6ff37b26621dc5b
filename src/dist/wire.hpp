// Snapshot wire frames for the distributed serving path.
//
// The coordinator ships grid-aligned snapshots to its shard workers over
// TCP as length-prefixed checksummed frames. The payload reuses
// monitor::encode_packet (the gmond-equivalent packet format, itself
// checksummed), and the framing reuses the WAL's FNV-1a-64 footer idiom,
// so both layers of validation are formats the repo already proves out.
// The decoder checks both checksums in one pass over the frame, as WAL
// replay does.
//
// Frame layout (all integers big-endian):
//
//   u32  magic 'ASNP'
//   u8   schema version (kWireVersion) — rejected *before* the checksum
//        is read, so an unknown-version peer fails loudly with
//        DecodeStatus::kBadVersion, never "checksum mismatch"
//   u64  sequence number (== the WAL sequence the worker will log it at)
//   u64  trace id   } obs::TraceContext, propagated across the process
//   u64  span id    } boundary so one snapshot yields one span tree
//   u64  announce time, wall-clock µs (v2) — stamped when the sender
//        first announces the snapshot; the receiving side derives the
//        announce→ingested latency from it (clamping negative clock
//        skew to zero), the sender derives announce→durable-ack
//   u32  payload length (1..kMaxFramePayload)
//   ...  payload = monitor::encode_packet(snapshot)
//   u64  FNV-1a-64 over version..payload
//
// Two tiny control messages share the idiom:
//
//   hello (worker -> coordinator, once per connection):
//     u32 'ASNH', u8 version, u64 wal_next, u64 FNV-1a-64 footer —
//     the worker's durable horizon, so a reconnecting coordinator knows
//     exactly which unacked frames to resend (exactly-once resume).
//   ack (worker -> coordinator, after each durable ingest):
//     u32 'ASNA', u64 seq — cumulative: seq and everything below is
//     durably logged on the worker.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "metrics/snapshot.hpp"
#include "obs/trace.hpp"

namespace appclass::dist {

/// Current frame schema version. Bump on any layout change; decoders
/// reject anything else (the pipeline-serialization v1/v2 precedent).
/// v2 added the announce-time field to the frame header.
inline constexpr std::uint8_t kWireVersion = 2;

/// Frame header bytes before the payload (magic..payload_len).
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 8 + 8 + 8 + 8 + 4;

/// Payload size cap: a monitor packet for the longest legal node ip is
/// well under this; anything larger is a corrupt or hostile length.
inline constexpr std::uint32_t kMaxFramePayload = 4096;

/// One decoded snapshot frame.
struct Frame {
  std::uint64_t seq = 0;
  obs::TraceContext trace;
  /// Wall-clock µs at which the sender announced the snapshot (0 from
  /// peers that never stamped one).
  std::uint64_t announce_us = 0;
  metrics::Snapshot snapshot;
};

/// Wall-clock microseconds since the Unix epoch — the announce-time
/// base. Wall clock (not steady) because the value crosses processes.
std::uint64_t wall_now_us() noexcept;

enum class DecodeStatus {
  kOk,           ///< one frame decoded and consumed
  kNeedMore,     ///< buffer holds a frame prefix; feed more bytes
  kBadMagic,     ///< not a frame boundary — connection is unusable
  kBadVersion,   ///< unknown schema version (distinct from corruption)
  kBadChecksum,  ///< framing checksum mismatch
  kBadPayload,   ///< zero/oversized length or inner packet rejected
};

const char* to_string(DecodeStatus status) noexcept;

/// Encodes one snapshot frame carrying `seq`, the trace context, and the
/// announce timestamp (wall_now_us() at first announcement).
std::vector<std::uint8_t> encode_frame(const metrics::Snapshot& snapshot,
                                       std::uint64_t seq,
                                       const obs::TraceContext& trace,
                                       std::uint64_t announce_us = 0);

/// Incremental decoder over a byte stream: append() whatever recv()
/// returned, then call next() until it stops yielding kOk. Any status
/// other than kOk/kNeedMore means the stream is corrupt and the
/// connection must be dropped (frames are not self-resynchronizing).
class FrameDecoder {
 public:
  void append(std::span<const std::uint8_t> bytes);
  /// Decodes the next frame into `out`, overwriting every field (a caller
  /// can reuse one Frame); `out` is left as it was unless kOk.
  DecodeStatus next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buffer_.size() - pos_; }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
};

/// Connection-open handshake: the worker's durable WAL horizon.
struct Hello {
  std::uint64_t wal_next = 0;
};

inline constexpr std::size_t kHelloBytes = 4 + 1 + 8 + 8;

std::vector<std::uint8_t> encode_hello(const Hello& hello);

/// Decodes a hello; kBadVersion / kBadChecksum / kBadMagic as for frames.
/// Exactly kHelloBytes must be supplied.
DecodeStatus decode_hello(std::span<const std::uint8_t> bytes, Hello& out);

inline constexpr std::size_t kAckBytes = 4 + 8;

std::vector<std::uint8_t> encode_ack(std::uint64_t seq);

/// Decodes an ack (exactly kAckBytes); kOk or kBadMagic.
DecodeStatus decode_ack(std::span<const std::uint8_t> bytes,
                        std::uint64_t& seq);

}  // namespace appclass::dist
