// Wire-format tests for the distributed serving frames: round trips
// (including trace-context propagation), streaming decode across
// arbitrary byte splits, and every corruption edge the decoder
// distinguishes — torn frame, flipped checksum, unknown schema version,
// zero-length / rejected payloads, bad magic.
#include "dist/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "monitor/wire.hpp"

namespace appclass::dist {
namespace {

metrics::Snapshot sample_snapshot(metrics::SimTime t = 25,
                                  const std::string& ip = "10.0.2.1") {
  metrics::Snapshot s;
  s.time = t;
  s.node_ip = ip;
  s.set(metrics::MetricId::kCpuUser, 93.5);
  s.set(metrics::MetricId::kBytesIn, 1.25e6);
  s.set(metrics::MetricId::kSwapOut, 42.0);
  return s;
}

obs::TraceContext sample_trace() {
  obs::TraceContext trace;
  trace.trace_id = 0xDEADBEEFCAFEF00Dull;
  trace.span_id = 0x123456789ABCDEF0ull;
  return trace;
}

/// Same FNV-1a-64 as the encoder, for tests that re-seal a frame after
/// corrupting its payload on purpose.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

void put_u64_be(std::uint8_t* out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

TEST(DistWire, FrameRoundTripPreservesSnapshotSeqAndTrace) {
  const metrics::Snapshot snapshot = sample_snapshot();
  const obs::TraceContext trace = sample_trace();
  const auto bytes = encode_frame(snapshot, 77, trace);

  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.seq, 77u);
  EXPECT_EQ(frame.trace.trace_id, trace.trace_id);
  EXPECT_EQ(frame.trace.span_id, trace.span_id);
  EXPECT_EQ(frame.snapshot.time, snapshot.time);
  EXPECT_EQ(frame.snapshot.node_ip, snapshot.node_ip);
  // The payload is monitor::encode_packet, so byte equality of the
  // re-encoded snapshots is full value equality.
  EXPECT_EQ(monitor::encode_packet(frame.snapshot),
            monitor::encode_packet(snapshot));
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
}

TEST(DistWire, AnnounceTimestampRoundTripsThroughTheHeader) {
  // v2 stamps the announce wall-clock into the frame header: the worker
  // derives announce->ingested latency from it, the sender
  // announce->durable-ack. Omitting it keeps the legacy zero.
  const metrics::Snapshot snapshot = sample_snapshot();
  const auto stamped =
      encode_frame(snapshot, 7, sample_trace(), 1'722'000'000'123'456ull);
  FrameDecoder decoder;
  decoder.append(stamped);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.announce_us, 1'722'000'000'123'456ull);
  EXPECT_EQ(frame.seq, 7u);

  const auto unstamped = encode_frame(snapshot, 8, {});
  FrameDecoder decoder2;
  decoder2.append(unstamped);
  ASSERT_EQ(decoder2.next(frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.announce_us, 0u);

  // wall_now_us is a plausible Unix-epoch stamp, not a steady clock:
  // any date past 2020 and before 2100 (in µs) passes.
  const std::uint64_t now = wall_now_us();
  EXPECT_GT(now, 1'577'836'800'000'000ull);
  EXPECT_LT(now, 4'102'444'800'000'000ull);
}

TEST(DistWire, DecoderReassemblesByteAtATime) {
  // Two back-to-back frames fed one byte at a time: the decoder must
  // yield each exactly once, at exactly the byte that completes it.
  const auto a = encode_frame(sample_snapshot(25, "10.0.0.1"), 1, {});
  const auto b = encode_frame(sample_snapshot(30, "10.0.1.1"), 2, {});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameDecoder decoder;
  Frame frame;
  std::vector<std::uint64_t> seqs;
  for (const std::uint8_t byte : stream) {
    decoder.append({&byte, 1});
    for (;;) {
      const DecodeStatus status = decoder.next(frame);
      if (status == DecodeStatus::kNeedMore) break;
      ASSERT_EQ(status, DecodeStatus::kOk);
      seqs.push_back(frame.seq);
    }
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2}));
}

TEST(DistWire, TornFrameMidLengthReportsNeedMore) {
  // Cut inside the length field (before the payload length is even
  // readable): a torn tail, not corruption.
  const auto bytes = encode_frame(sample_snapshot(), 5, {});
  FrameDecoder decoder;
  decoder.append({bytes.data(), kFrameHeaderBytes - 2});
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
  // Torn mid-payload is equally incomplete.
  FrameDecoder decoder2;
  decoder2.append({bytes.data(), bytes.size() - 9});
  EXPECT_EQ(decoder2.next(frame), DecodeStatus::kNeedMore);
}

TEST(DistWire, FlippedChecksumByteIsBadChecksum) {
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  bytes.back() ^= 0x01;  // trailer byte
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadChecksum);
}

TEST(DistWire, FlippedPayloadByteIsBadChecksum) {
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  bytes[kFrameHeaderBytes + 3] ^= 0x80;
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadChecksum);
}

TEST(DistWire, UnknownVersionRejectedBeforeChecksum) {
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  bytes[4] = kWireVersion + 1;  // version byte sits right after the magic
  // Deliberately NOT re-sealing the checksum: kBadVersion must win, so a
  // peer speaking a future schema reads "bad version", never "corrupt".
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadVersion);
}

TEST(DistWire, ZeroLengthPayloadIsBadPayload) {
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  // Zero the payload-length field (last 4 header bytes). Length sanity
  // precedes the checksum, so no re-seal needed.
  std::memset(bytes.data() + kFrameHeaderBytes - 4, 0, 4);
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadPayload);
}

TEST(DistWire, ValidChecksumOverGarbagePayloadIsBadPayload) {
  // A frame whose outer checksum is intact but whose payload is not a
  // monitor packet: the inner decode must reject it as kBadPayload —
  // the two validation layers are distinguishable.
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  bytes[kFrameHeaderBytes] ^= 0xFF;  // corrupt payload...
  const std::uint64_t checksum =      // ...and re-seal the frame
      fnv1a64(bytes.data() + 4, bytes.size() - 4 - 8);
  put_u64_be(bytes.data() + bytes.size() - 8, checksum);
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadPayload);
}

TEST(DistWire, SealedFrameHoldingAVersion2PacketIsBadPayload) {
  // Frames carry APMC version 1 packets; a well-formed version 2 packet
  // (the WAL v2 payload) under a valid frame checksum is still rejected.
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  const auto v2 = monitor::encode_packet(sample_snapshot(),
                                         monitor::PacketVersion::kV2);
  ASSERT_EQ(v2.size(), bytes.size() - kFrameHeaderBytes - 8);
  std::memcpy(bytes.data() + kFrameHeaderBytes, v2.data(), v2.size());
  put_u64_be(bytes.data() + bytes.size() - 8,
             fnv1a64(bytes.data() + 4, bytes.size() - 4 - 8));
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadPayload);
}

TEST(DistWire, BadMagicIsUnrecoverable) {
  auto bytes = encode_frame(sample_snapshot(), 5, {});
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kBadMagic);
}

TEST(DistWire, HelloRoundTripAndCorruptionEdges) {
  const auto bytes = encode_hello({.wal_next = 424242});
  ASSERT_EQ(bytes.size(), kHelloBytes);
  Hello hello;
  ASSERT_EQ(decode_hello(bytes, hello), DecodeStatus::kOk);
  EXPECT_EQ(hello.wal_next, 424242u);

  auto bad_version = bytes;
  bad_version[4] = kWireVersion + 3;
  EXPECT_EQ(decode_hello(bad_version, hello), DecodeStatus::kBadVersion);

  auto bad_checksum = bytes;
  bad_checksum.back() ^= 0x10;
  EXPECT_EQ(decode_hello(bad_checksum, hello), DecodeStatus::kBadChecksum);

  auto bad_magic = bytes;
  bad_magic[1] ^= 0xFF;
  EXPECT_EQ(decode_hello(bad_magic, hello), DecodeStatus::kBadMagic);
}

TEST(DistWire, AckRoundTrip) {
  const auto bytes = encode_ack(99);
  ASSERT_EQ(bytes.size(), kAckBytes);
  std::uint64_t seq = 0;
  ASSERT_EQ(decode_ack(bytes, seq), DecodeStatus::kOk);
  EXPECT_EQ(seq, 99u);

  auto bad = bytes;
  bad[0] ^= 0x01;
  EXPECT_EQ(decode_ack(bad, seq), DecodeStatus::kBadMagic);
}

TEST(DistWire, StatusNamesAreDistinct) {
  // The serve log prints these; version mismatch and corruption must
  // read differently.
  EXPECT_STRNE(to_string(DecodeStatus::kBadVersion),
               to_string(DecodeStatus::kBadChecksum));
  EXPECT_STRNE(to_string(DecodeStatus::kBadPayload),
               to_string(DecodeStatus::kBadChecksum));
}

}  // namespace
}  // namespace appclass::dist
