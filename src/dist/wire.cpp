#include "dist/wire.hpp"

#include <chrono>
#include <cstring>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "common/fnv1a.hpp"
#include "monitor/wire.hpp"

namespace appclass::dist {

namespace {

constexpr std::uint32_t kFrameMagic = 0x41534E50;  // "ASNP"
constexpr std::uint32_t kHelloMagic = 0x41534E48;  // "ASNH"
constexpr std::uint32_t kAckMagic = 0x41534E41;    // "ASNA"

using common::get_be;
using common::put_be;

}  // namespace

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
    case DecodeStatus::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

std::uint64_t wall_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::vector<std::uint8_t> encode_frame(const metrics::Snapshot& snapshot,
                                       std::uint64_t seq,
                                       const obs::TraceContext& trace,
                                       std::uint64_t announce_us) {
  const std::vector<std::uint8_t> payload = monitor::encode_packet(snapshot);
  APPCLASS_EXPECTS(!payload.empty() && payload.size() <= kMaxFramePayload);
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + 8);
  put_be(out, kFrameMagic);
  out.push_back(kWireVersion);
  put_be(out, seq);
  put_be(out, trace.trace_id);
  put_be(out, trace.span_id);
  put_be(out, announce_us);
  put_be(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // Checksum covers version..payload — everything after the magic.
  put_be(out, common::fnv1a64(std::span<const std::uint8_t>(out).subspan(4)));
  return out;
}

void FrameDecoder::append(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  // Drop consumed prefix once it dominates the buffer, so a long-lived
  // connection does not accrete every frame it ever saw.
  if (pos_ > 0 && pos_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

DecodeStatus FrameDecoder::next(Frame& out) {
  const std::size_t have = buffer_.size() - pos_;
  const std::uint8_t* p = buffer_.data() + pos_;
  if (have < 4) return DecodeStatus::kNeedMore;
  if (get_be<std::uint32_t>(p) != kFrameMagic) return DecodeStatus::kBadMagic;
  if (have < 5) return DecodeStatus::kNeedMore;
  // Version is judged before anything else is trusted: an unknown schema
  // must not masquerade as corruption.
  if (p[4] != kWireVersion) return DecodeStatus::kBadVersion;
  if (have < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const std::uint32_t payload_len = get_be<std::uint32_t>(p + 37);
  if (payload_len == 0 || payload_len > kMaxFramePayload)
    return DecodeStatus::kBadPayload;
  const std::size_t total = kFrameHeaderBytes + payload_len + 8;
  if (have < total) return DecodeStatus::kNeedMore;

  // One pass checks the frame checksum (version..payload) and hashes the
  // packet body; the packet is then checked and decoded in place.
  const auto checksum =
      get_be<std::uint64_t>(p + kFrameHeaderBytes + payload_len);
  const common::Fnv1aLanes hashes = monitor::hash_envelope(
      {p + 4, kFrameHeaderBytes + payload_len - 4}, kFrameHeaderBytes - 4);
  if (hashes.h64 != checksum) return DecodeStatus::kBadChecksum;
  if (!monitor::check_packet({p + kFrameHeaderBytes, payload_len},
                             hashes.h32, &out.snapshot))
    return DecodeStatus::kBadPayload;

  out.seq = get_be<std::uint64_t>(p + 5);
  out.trace.trace_id = get_be<std::uint64_t>(p + 13);
  out.trace.span_id = get_be<std::uint64_t>(p + 21);
  out.trace.parent_span_id = 0;
  out.announce_us = get_be<std::uint64_t>(p + 29);
  pos_ += total;
  compact();
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  std::vector<std::uint8_t> out;
  out.reserve(kHelloBytes);
  put_be(out, kHelloMagic);
  out.push_back(kWireVersion);
  put_be(out, hello.wal_next);
  put_be(out, common::fnv1a64(std::span<const std::uint8_t>(out).subspan(4)));
  APPCLASS_ENSURES(out.size() == kHelloBytes);
  return out;
}

DecodeStatus decode_hello(std::span<const std::uint8_t> bytes, Hello& out) {
  if (bytes.size() != kHelloBytes) return DecodeStatus::kBadPayload;
  if (get_be<std::uint32_t>(bytes.data()) != kHelloMagic)
    return DecodeStatus::kBadMagic;
  if (bytes[4] != kWireVersion) return DecodeStatus::kBadVersion;
  if (common::fnv1a64(bytes.subspan(4, 9)) !=
      get_be<std::uint64_t>(bytes.data() + 13))
    return DecodeStatus::kBadChecksum;
  out.wal_next = get_be<std::uint64_t>(bytes.data() + 5);
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_ack(std::uint64_t seq) {
  std::vector<std::uint8_t> out;
  out.reserve(kAckBytes);
  put_be(out, kAckMagic);
  put_be(out, seq);
  APPCLASS_ENSURES(out.size() == kAckBytes);
  return out;
}

DecodeStatus decode_ack(std::span<const std::uint8_t> bytes,
                        std::uint64_t& seq) {
  if (bytes.size() != kAckBytes) return DecodeStatus::kBadPayload;
  if (get_be<std::uint32_t>(bytes.data()) != kAckMagic)
    return DecodeStatus::kBadMagic;
  seq = get_be<std::uint64_t>(bytes.data() + 4);
  return DecodeStatus::kOk;
}

}  // namespace appclass::dist
