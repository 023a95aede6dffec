// Blocking client for the vicinityd wire protocol (net/protocol.h).
//
// This is deliberately the only place in src/net that performs blocking
// socket I/O: the server side is non-blocking epoll throughout, while a
// client library wants the simple call-and-wait shape. Two usage modes:
//
//   * Synchronous conveniences — distance(), distances(), path(),
//     insert_edge(), remove_edge(), stats(), ping(): one request, wait for
//     its response, parse it, throw ServerError on a non-OK status.
//   * Pipelined — send_*() enqueue a frame and return its request id
//     without waiting; recv_reply() pulls the next response off the wire.
//     The server answers PING/STATS inline but batches query ops, so
//     pipelined responses can arrive out of submission order: match them
//     by request id, never by position.
//
// send_bytes() exposes the raw socket for protocol-robustness tests that
// must transmit deliberately malformed or partial frames.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/types.h"

namespace vicinity::net {

/// Classification of every failure the client raises, so callers
/// (bench_server, vicinity_cli, chaos tests) branch on failure mode
/// instead of string-matching what().
enum class ClientErrorKind : std::uint8_t {
  kConnect,  ///< connection could not be established (attempts exhausted)
  kTimeout,  ///< recv deadline fired; connection state unknown afterwards
  kClosed,   ///< peer closed where (part of) a frame was expected
  kIo,       ///< hard socket error (errno-level) on an established conn
  kServer,   ///< the server answered with a non-OK status
};

const char* to_string(ClientErrorKind k);

/// Base of the client's typed error hierarchy. Derives runtime_error so
/// pre-existing catch sites keep working unchanged.
class ClientError : public std::runtime_error {
 public:
  ClientError(ClientErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  ClientErrorKind kind() const { return kind_; }

 private:
  ClientErrorKind kind_;
};

/// A non-OK response from the server (status kError, kBusy or kTimeout),
/// carrying the server's message payload.
class ServerError : public ClientError {
 public:
  ServerError(Status status, const std::string& message)
      : ClientError(ClientErrorKind::kServer, message), status_(status) {}

  Status status() const { return status_; }

 private:
  Status status_;
};

/// recv timed out (the socket-level SO_RCVTIMEO fired). Distinct from
/// ServerError: the connection state is unknown afterwards.
class ClientTimeout : public ClientError {
 public:
  explicit ClientTimeout(const std::string& what)
      : ClientError(ClientErrorKind::kTimeout, what) {}
};

/// connect() failed after exhausting its retry budget (or on a
/// non-transient error, e.g. a malformed address).
class ConnectError : public ClientError {
 public:
  ConnectError(const std::string& what, std::uint32_t attempts)
      : ClientError(ClientErrorKind::kConnect, what), attempts_(attempts) {}

  /// How many connect attempts were made before giving up.
  std::uint32_t attempts() const { return attempts_; }

 private:
  std::uint32_t attempts_;
};

struct ClientOptions {
  /// SO_RCVTIMEO for every recv; 0 waits forever. A finite default keeps
  /// test drivers from hanging when the server misbehaves.
  std::uint32_t recv_timeout_ms = 30000;
  /// Per-attempt connect deadline (non-blocking connect + poll); 0 waits
  /// as long as the kernel does.
  std::uint32_t connect_timeout_ms = 5000;
  /// Total connect attempts on transient failures (refused, reset, timed
  /// out, unreachable); clamped to at least 1. Non-transient failures
  /// (bad address) fail immediately regardless.
  std::uint32_t connect_attempts = 3;
  /// First retry backoff; doubles per retry, jittered to [0.5, 1.0) of the
  /// nominal value so a reconnect herd decorrelates.
  std::uint32_t backoff_base_ms = 20;
  /// Jitter seed; the fixed default keeps test schedules reproducible.
  std::uint64_t backoff_seed = 0x5eedc11e47ull;
};

struct RawReply {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

struct DistanceReply {
  std::uint64_t epoch = 0;
  DistanceRecord record;
};

struct DistancesReply {
  std::uint64_t epoch = 0;
  std::vector<DistanceRecord> records;
};

struct PathReply {
  std::uint64_t epoch = 0;
  DistanceRecord record;
  std::vector<NodeId> nodes;  ///< s..t inclusive; empty when unavailable
};

// Payload parsers for the pipelined mode (throw ServerError on non-OK
// status, ProtocolError on a malformed payload).
DistanceReply parse_distance_reply(const RawReply& r);
DistancesReply parse_distances_reply(const RawReply& r);
PathReply parse_path_reply(const RawReply& r);
UpdateReply parse_update_reply(const RawReply& r);
StatsReply parse_stats_reply(const RawReply& r);

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions options) : opts_(options) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept
      : opts_(other.opts_), fd_(other.fd_), next_id_(other.next_id_) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      close();
      opts_ = other.opts_;
      fd_ = other.fd_;
      next_id_ = other.next_id_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// Connects and enables TCP_NODELAY. Each attempt is a non-blocking
  /// connect bounded by connect_timeout_ms; transient failures (refused,
  /// reset, unreachable, timed out) retry up to connect_attempts times
  /// with jittered exponential backoff. Throws ConnectError on failure.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // -- synchronous conveniences ---------------------------------------------
  void ping();
  DistanceReply distance(NodeId s, NodeId t);
  DistancesReply distances(NodeId s, std::span<const NodeId> targets);
  PathReply path(NodeId s, NodeId t);
  UpdateReply insert_edge(NodeId u, NodeId v, Weight w);
  UpdateReply remove_edge(NodeId u, NodeId v);
  StatsReply stats();

  // -- pipelined mode -------------------------------------------------------
  std::uint64_t send_ping();
  std::uint64_t send_distance(NodeId s, NodeId t);
  std::uint64_t send_distances(NodeId s, std::span<const NodeId> targets);
  std::uint64_t send_path(NodeId s, NodeId t);
  std::uint64_t send_insert_edge(NodeId u, NodeId v, Weight w);
  std::uint64_t send_remove_edge(NodeId u, NodeId v);
  std::uint64_t send_stats();

  /// Next response frame off the wire, in server completion order.
  /// nullopt on clean EOF (server closed); ClientTimeout on recv timeout;
  /// ClientError(kIo) on socket error, (kClosed) on EOF mid-frame.
  std::optional<RawReply> recv_reply();

  /// Raw transmit, for tests sending malformed or partial frames.
  void send_bytes(const void* data, std::size_t n);

  /// Blocking read of whatever bytes are available (one recv), up to cap.
  /// Returns 0 on clean EOF. For bulk consumers (load generators) that
  /// parse frames themselves instead of paying two recv() calls per reply
  /// through recv_reply(). Must not be mixed with recv_reply() on the same
  /// connection: bytes buffered by the caller are invisible to it.
  std::size_t recv_some(void* dst, std::size_t cap);

 private:
  std::uint64_t send_request(Op op, std::span<const std::uint8_t> payload);
  RawReply expect_reply(std::uint64_t request_id, Op op);
  /// false on clean EOF before any byte; throws if EOF splits a frame.
  bool recv_exact(void* dst, std::size_t n);

  ClientOptions opts_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
};

}  // namespace vicinity::net
