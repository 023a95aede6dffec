// Wire protocol for vicinityd — the network face of the paper's
// "shortest paths as a service" claim (and of the follow-up "Shortest
// Paths in Microseconds" serving system): a length-prefixed binary
// framing thin enough to parse in nanoseconds, carrying a request id so
// clients can pipeline an arbitrary number of requests per connection.
//
// Frame layout (everything little-endian, no implicit padding):
//
//   offset  size  field
//        0     4  payload_len   bytes following the 16-byte header
//        4     1  version       kProtocolVersion (2)
//        5     1  op            Op below
//        6     1  status        Status below (0 in requests)
//        7     1  reserved      must be 0
//        8     8  request_id    echoed verbatim in the response
//       16     n  payload       op-specific, layouts below
//
// Op payloads (request -> response):
//   kPing         ()                        -> ()
//   kDistance     (u32 s, u32 t)           -> (u64 epoch, DistanceRecord)
//   kDistances    (u32 s, u32 n, u32 t[n]) -> (u64 epoch, u32 n,
//                                              DistanceRecord[n])
//   kPath         (u32 s, u32 t)           -> (u64 epoch, DistanceRecord,
//                                              u32 n, u32 node[n])
//   kApplyUpdate  (u8 kind, u8 pad[3],
//                  u32 u, u32 v, u32 w)    -> (UpdateReply)
//   kStats        ()                       -> (StatsReply)
//
// Error responses (status != kOk) carry a human-readable message as the
// payload. A frame that cannot be parsed at all (bad version, oversized
// length) desynchronizes the stream: the server answers with status
// kError and then closes the connection, because the next frame boundary
// is unknowable.
//
// Every multi-byte integer is serialized through FrameWriter/FrameReader
// (bounds-checked memcpy), never by casting buffer bytes to structs — the
// wire layout stays frozen even if a compiler pads differently.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.h"

namespace vicinity::net {

// Version history: 1 = PR 8 initial protocol; 2 = kTimeout status and the
// timeouts/idle_closes/slow_client_closes counters in StatsReply.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on one frame's payload. Large enough for a DISTANCES fan
/// of ~250k targets or a long path; small enough that a hostile length
/// prefix cannot make the server allocate gigabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

enum class Op : std::uint8_t {
  kPing = 0,
  kDistance = 1,
  kDistances = 2,  ///< one-to-many: one source, a target list
  kPath = 3,
  kApplyUpdate = 4,
  kStats = 5,
};
inline constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(Op::kStats);

const char* to_string(Op op);

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,    ///< malformed request / capability refusal; payload = message
  kBusy = 2,     ///< admission control shed this request; retry later
  /// The request was admitted but waited out --request-timeout-ms before a
  /// batch could run it; it was never executed. Distinct from kBusy (shed
  /// at admission, queue full) so clients can tell "server refused
  /// instantly, retry elsewhere" from "server is falling behind its
  /// latency contract".
  kTimeout = 3,
};

const char* to_string(Status s);

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kProtocolVersion;
  Op op = Op::kPing;
  Status status = Status::kOk;
  std::uint64_t request_id = 0;
};

/// Thrown by FrameReader on truncated or malformed payloads. Derives
/// runtime_error: hostile bytes are an input condition, not a bug.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("vicinity-net: " + what) {}
};

// ---- serialization helpers ------------------------------------------------

/// Appends little-endian scalars to a byte vector. The host CPUs this
/// repo targets are little-endian (the index container pins the same
/// assumption via its endian marker), so stores are straight memcpy.
class FrameWriter {
 public:
  explicit FrameWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void bytes(const void* p, std::size_t n) { append(p, n); }

 private:
  // Out-of-line (protocol.cpp): keeping the insert out of callers' inlined
  // bodies also sidesteps a GCC 12 -O3 stringop-overflow false positive.
  void append(const void* p, std::size_t n);

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reads over a received payload. Every
/// overrun throws ProtocolError — a truncated or lying frame can never
/// read out of bounds.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  double f64() { return take<double>(); }

  std::size_t remaining() const { return data_.size() - pos_; }

  void expect_end() const {
    if (pos_ != data_.size()) {
      throw ProtocolError("trailing bytes in payload");
    }
  }

 private:
  template <typename T>
  T take() {
    if (remaining() < sizeof(T)) {
      throw ProtocolError("truncated payload");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Serializes a header into exactly kFrameHeaderBytes at the end of out.
void encode_header(const FrameHeader& h, std::vector<std::uint8_t>& out);

/// Parses the 16 header bytes. Purely structural — callers still validate
/// version / op / payload_len against their own limits via
/// validate_request_header(). Requires bytes.size() >= kFrameHeaderBytes.
FrameHeader decode_header(std::span<const std::uint8_t> bytes);

/// Header sanity for an incoming REQUEST. Returns an empty string when
/// acceptable, else the error message to send back (after which the
/// connection must close: the stream may be desynchronized).
std::string validate_request_header(const FrameHeader& h,
                                    std::uint32_t max_payload);

/// Convenience: one whole frame (header + payload) appended to out.
void encode_frame(const FrameHeader& h, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out);

// ---- typed payloads -------------------------------------------------------

/// One answered distance: mirrors core::QueryResult minus hash_lookups
/// (a per-query microarchitectural counter, not a serving-contract field).
///
/// `method` carries the core::QueryMethod ordinal. Ordinals are append-only
/// and never renumbered: 0 identical, 1 source-landmark, 2 target-landmark,
/// 3 target-in-Γ(s), 4 source-in-Γ(t), 5 vicinity-intersection,
/// 6 fallback-exact, 7 fallback-estimate, 8 baseline-exact,
/// 9 baseline-estimate, 10 not-found, 11 landmark-certificate,
/// 12 crossing-edge.
struct DistanceRecord {
  Distance dist = kInfDistance;
  std::uint8_t method = 0;  ///< core::QueryMethod as ordinal (see above)
  bool exact = false;

  bool operator==(const DistanceRecord&) const = default;
};

inline constexpr std::size_t kDistanceRecordBytes = 8;

void write_distance_record(FrameWriter& w, const DistanceRecord& r);
DistanceRecord read_distance_record(FrameReader& r);

/// kApplyUpdate response payload.
struct UpdateReply {
  std::uint64_t epoch = 0;  ///< engine epoch after this update
  std::uint32_t affected_vicinities = 0;
  std::uint32_t boundary_patches = 0;
  std::uint32_t landmark_rows_refreshed = 0;
  bool full_rebuild = false;
};

void write_update_reply(FrameWriter& w, const UpdateReply& r);
UpdateReply read_update_reply(FrameReader& r);

/// kStats response payload — the serving observability surface: queue /
/// shed / batch counters plus request-latency percentiles (measured from
/// the moment the server read the request frame to its reply's
/// serialization, so they include the time a request waits in the queue
/// behind the running flush, but not time spent unread in the socket
/// buffer) and qps over the window since the previous kStats request.
struct StatsReply {
  std::uint64_t epoch = 0;
  std::uint64_t uptime_us = 0;
  std::uint64_t queries_total = 0;     ///< distance-type queries answered
  std::uint64_t requests_total = 0;    ///< every frame answered, any op
  std::uint64_t batches_total = 0;     ///< run_batch calls issued
  std::uint64_t shed_total = 0;        ///< BUSY responses (admission drops)
  std::uint64_t errors_total = 0;      ///< kError responses
  std::uint64_t updates_total = 0;     ///< APPLY_UPDATE ops applied
  std::uint64_t connections_open = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t max_batch = 0;         ///< largest coalesced batch so far
  std::uint64_t pending = 0;           ///< admission queue depth right now
  /// Result-cache counters (all zero when the daemon runs uncached; see
  /// cache/result_cache.h and vicinityd --cache-mb). Monotonic since start —
  /// hit-rate over a window is delta(hits) / delta(hits + misses).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;      ///< includes stale-epoch misses
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  /// Fault-tolerance counters (protocol v2, appended after the cache block
  /// so v1 consumers' fixed offsets stayed put through the version bump).
  std::uint64_t timeouts_total = 0;    ///< kTimeout responses (deadline hit)
  std::uint64_t idle_closes = 0;       ///< conns closed by --idle-timeout-ms
  std::uint64_t slow_client_closes = 0;  ///< evicted slow/stalled peers
  double qps = 0.0;                    ///< since the previous kStats
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double cache_hit_rate = 0.0;         ///< lifetime hits / lookups
};

void write_stats_reply(FrameWriter& w, const StatsReply& r);
StatsReply read_stats_reply(FrameReader& r);

}  // namespace vicinity::net
