// Wire-format unit tests: header encode/decode, request validation, and
// typed payload round-trips. These pin the byte layout — a failure here
// means old clients can no longer talk to new servers.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "core/oracle.h"

namespace vicinity::net {
namespace {

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader h;
  h.payload_len = 0xAABBCC;
  h.op = Op::kDistances;
  h.status = Status::kBusy;
  h.request_id = 0x1122334455667788ULL;

  std::vector<std::uint8_t> bytes;
  encode_header(h, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);

  const FrameHeader d = decode_header(bytes);
  EXPECT_EQ(d.payload_len, h.payload_len);
  EXPECT_EQ(d.version, kProtocolVersion);
  EXPECT_EQ(d.op, Op::kDistances);
  EXPECT_EQ(d.status, Status::kBusy);
  EXPECT_EQ(d.request_id, h.request_id);
}

TEST(Protocol, HeaderByteLayoutIsFrozen) {
  // The exact on-wire bytes of a known header. If this test has to change,
  // kProtocolVersion must change with it.
  FrameHeader h;
  h.payload_len = 8;
  h.op = Op::kDistance;
  h.status = Status::kOk;
  h.request_id = 2;
  std::vector<std::uint8_t> bytes;
  encode_header(h, bytes);
  const std::uint8_t expect[kFrameHeaderBytes] = {
      8, 0, 0, 0,        // payload_len LE
      2,                 // version (kProtocolVersion)
      1,                 // op = kDistance
      0,                 // status = kOk
      0,                 // reserved
      2, 0, 0, 0, 0, 0, 0, 0};  // request_id LE
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    EXPECT_EQ(bytes[i], expect[i]) << "byte " << i;
  }
}

TEST(Protocol, DecodeHeaderRejectsShortBuffer) {
  const std::vector<std::uint8_t> bytes(kFrameHeaderBytes - 1, 0);
  EXPECT_THROW(decode_header(bytes), ProtocolError);
}

TEST(Protocol, ValidateRequestHeader) {
  FrameHeader h;
  h.op = Op::kPing;
  EXPECT_TRUE(validate_request_header(h, kMaxPayloadBytes).empty());

  FrameHeader bad_version = h;
  bad_version.version = kProtocolVersion + 1;
  EXPECT_FALSE(
      validate_request_header(bad_version, kMaxPayloadBytes).empty());

  FrameHeader bad_op = h;
  bad_op.op = static_cast<Op>(kMaxOp + 1);
  EXPECT_FALSE(validate_request_header(bad_op, kMaxPayloadBytes).empty());

  FrameHeader oversized = h;
  oversized.payload_len = kMaxPayloadBytes + 1;
  EXPECT_FALSE(validate_request_header(oversized, kMaxPayloadBytes).empty());
}

TEST(Protocol, FrameReaderBoundsChecked) {
  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  w.u32(7);
  FrameReader r(payload);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), ProtocolError);  // past the end

  FrameReader r2(payload);
  EXPECT_THROW(r2.u64(), ProtocolError);  // wider than remaining

  FrameReader r3(payload);
  r3.u16();
  EXPECT_THROW(r3.expect_end(), ProtocolError);  // trailing bytes
}

TEST(Protocol, DistanceRecordRoundTrip) {
  const DistanceRecord rec{1234, 3, true};
  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  write_distance_record(w, rec);
  EXPECT_EQ(payload.size(), kDistanceRecordBytes);

  FrameReader r(payload);
  EXPECT_EQ(read_distance_record(r), rec);
  r.expect_end();
}

TEST(Protocol, QueryMethodOrdinalsAreFrozen) {
  // DistanceRecord::method is a core::QueryMethod ordinal on the wire: a
  // method may be appended, but none may move or be renamed.
  using core::QueryMethod;
  const std::pair<QueryMethod, const char*> pinned[] = {
      {QueryMethod::kIdenticalNodes, "identical"},
      {QueryMethod::kSourceIsLandmark, "source-landmark"},
      {QueryMethod::kTargetIsLandmark, "target-landmark"},
      {QueryMethod::kTargetInSourceVicinity, "target-in-Γ(s)"},
      {QueryMethod::kSourceInTargetVicinity, "source-in-Γ(t)"},
      {QueryMethod::kVicinityIntersection, "vicinity-intersection"},
      {QueryMethod::kFallbackExact, "fallback-exact"},
      {QueryMethod::kFallbackEstimate, "fallback-estimate"},
      {QueryMethod::kBaselineExact, "baseline-exact"},
      {QueryMethod::kBaselineEstimate, "baseline-estimate"},
      {QueryMethod::kNotFound, "not-found"},
      {QueryMethod::kLandmarkCertificate, "landmark-certificate"},
      {QueryMethod::kCrossingEdge, "crossing-edge"},
  };
  ASSERT_EQ(std::size(pinned), core::kNumQueryMethods);
  for (std::size_t i = 0; i < std::size(pinned); ++i) {
    const auto [method, name] = pinned[i];
    EXPECT_EQ(static_cast<std::size_t>(method), i) << name;
    EXPECT_STREQ(core::to_string(method), name) << "ordinal " << i;
    // The ordinal survives a DistanceRecord round trip.
    std::vector<std::uint8_t> payload;
    FrameWriter w(payload);
    write_distance_record(w, DistanceRecord{7, static_cast<std::uint8_t>(i),
                                            true});
    FrameReader r(payload);
    EXPECT_EQ(read_distance_record(r).method, i);
  }
}

TEST(Protocol, UpdateReplyRoundTrip) {
  UpdateReply reply;
  reply.epoch = 42;
  reply.affected_vicinities = 17;
  reply.boundary_patches = 5;
  reply.landmark_rows_refreshed = 3;
  reply.full_rebuild = true;

  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  write_update_reply(w, reply);
  FrameReader r(payload);
  const UpdateReply d = read_update_reply(r);
  r.expect_end();
  EXPECT_EQ(d.epoch, reply.epoch);
  EXPECT_EQ(d.affected_vicinities, reply.affected_vicinities);
  EXPECT_EQ(d.boundary_patches, reply.boundary_patches);
  EXPECT_EQ(d.landmark_rows_refreshed, reply.landmark_rows_refreshed);
  EXPECT_EQ(d.full_rebuild, reply.full_rebuild);
}

TEST(Protocol, StatsReplyRoundTrip) {
  StatsReply reply;
  reply.epoch = 9;
  reply.uptime_us = 123456;
  reply.queries_total = 1000;
  reply.requests_total = 1010;
  reply.batches_total = 7;
  reply.shed_total = 2;
  reply.errors_total = 1;
  reply.updates_total = 3;
  reply.connections_open = 4;
  reply.connections_total = 12;
  reply.max_batch = 512;
  reply.pending = 6;
  reply.cache_hits = 800;
  reply.cache_misses = 200;
  reply.cache_inserts = 195;
  reply.cache_evictions = 17;
  reply.timeouts_total = 21;
  reply.idle_closes = 5;
  reply.slow_client_closes = 2;
  reply.qps = 123456.5;
  reply.p50_us = 80.25;
  reply.p90_us = 200.0;
  reply.p99_us = 900.75;
  reply.max_us = 5000.0;
  reply.cache_hit_rate = 0.8;

  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  write_stats_reply(w, reply);
  FrameReader r(payload);
  const StatsReply d = read_stats_reply(r);
  r.expect_end();
  EXPECT_EQ(d.epoch, reply.epoch);
  EXPECT_EQ(d.uptime_us, reply.uptime_us);
  EXPECT_EQ(d.queries_total, reply.queries_total);
  EXPECT_EQ(d.requests_total, reply.requests_total);
  EXPECT_EQ(d.batches_total, reply.batches_total);
  EXPECT_EQ(d.shed_total, reply.shed_total);
  EXPECT_EQ(d.errors_total, reply.errors_total);
  EXPECT_EQ(d.updates_total, reply.updates_total);
  EXPECT_EQ(d.connections_open, reply.connections_open);
  EXPECT_EQ(d.connections_total, reply.connections_total);
  EXPECT_EQ(d.max_batch, reply.max_batch);
  EXPECT_EQ(d.pending, reply.pending);
  EXPECT_EQ(d.cache_hits, reply.cache_hits);
  EXPECT_EQ(d.cache_misses, reply.cache_misses);
  EXPECT_EQ(d.cache_inserts, reply.cache_inserts);
  EXPECT_EQ(d.cache_evictions, reply.cache_evictions);
  EXPECT_EQ(d.timeouts_total, reply.timeouts_total);
  EXPECT_EQ(d.idle_closes, reply.idle_closes);
  EXPECT_EQ(d.slow_client_closes, reply.slow_client_closes);
  EXPECT_DOUBLE_EQ(d.qps, reply.qps);
  EXPECT_DOUBLE_EQ(d.p50_us, reply.p50_us);
  EXPECT_DOUBLE_EQ(d.p90_us, reply.p90_us);
  EXPECT_DOUBLE_EQ(d.p99_us, reply.p99_us);
  EXPECT_DOUBLE_EQ(d.max_us, reply.max_us);
  EXPECT_DOUBLE_EQ(d.cache_hit_rate, reply.cache_hit_rate);
}

TEST(Protocol, EncodeFrameIsHeaderPlusPayload) {
  FrameHeader h;
  h.op = Op::kDistance;
  h.request_id = 5;
  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  w.u32(1);
  w.u32(2);
  h.payload_len = static_cast<std::uint32_t>(payload.size());

  std::vector<std::uint8_t> frame;
  encode_frame(h, payload, frame);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  const FrameHeader d = decode_header(frame);
  EXPECT_EQ(d.payload_len, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         frame.begin() + kFrameHeaderBytes));
}

TEST(Protocol, ToStringCoversEveryOpAndStatus) {
  for (std::uint8_t i = 0; i <= kMaxOp; ++i) {
    EXPECT_STRNE(to_string(static_cast<Op>(i)), "");
  }
  EXPECT_STRNE(to_string(Status::kOk), "");
  EXPECT_STRNE(to_string(Status::kError), "");
  EXPECT_STRNE(to_string(Status::kBusy), "");
}

}  // namespace
}  // namespace vicinity::net
