// Fault-tolerance e2e tests for the serving layer's protection and
// shutdown machinery: request deadlines (TIMEOUT replies), idle and
// slow-loris eviction, the per-connection write cap, and graceful drain
// under pipelined load. Companion to chaos_test.cpp, which exercises the
// same server under randomized syscall faults; here every scenario is
// deterministic.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/any_oracle.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "net/client.h"
#include "net/gated_oracle.h"
#include "net/server.h"
#include "test_support.h"

namespace vicinity::net {
namespace {

core::OracleOptions small_options() {
  core::OracleOptions opts;
  opts.seed = 7;
  return opts;
}

/// Like ServerE2E but lets every test pick its own ServerOptions before
/// the server starts. The server's oracle sits behind a gate, so a test can
/// hold the event loop inside a flush while it queues work behind it.
class DeadlineDrainTest : public ::testing::Test {
 protected:
  void start_server(ServerOptions opts) {
    graph_ = vicinity::testing::random_connected(400, 1600, /*seed=*/21);
    oracle_ = core::make_any_oracle(
        core::VicinityOracle::build(graph_, small_options()));
    gate_ = std::make_shared<vicinity::testing::GatedOracle>(oracle_);
    server_ = std::make_unique<Server>(gate_, &graph_, opts);
    server_->start();
  }

  void TearDown() override {
    if (gate_) gate_->open_gate();  // stop() joins a loop held at the gate
    if (server_) server_->stop();
  }

  Client make_client(std::uint32_t recv_timeout_ms = 10000) {
    Client c(ClientOptions{recv_timeout_ms});
    c.connect("127.0.0.1", server_->port());
    return c;
  }

  /// Holds a filler DISTANCE(0, 1) at the gate and returns its id. Requests
  /// sent next wait unread until release_filler().
  std::uint64_t hold_filler(Client& client) {
    return vicinity::testing::hold_flush(*gate_, client, 0, 1);
  }

  /// Lets the filler finish and checks its reply. With max_batch = 1 the
  /// next round admits every request sent meanwhile and holds the first
  /// one's flush at the gate, so the rest wait admitted behind a running
  /// flush.
  void release_filler(Client& client, std::uint64_t filler) {
    ASSERT_TRUE(vicinity::testing::wait_acked(client));
    gate_->let_through(1);
    const std::optional<RawReply> r = client.recv_reply();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.request_id, filler);
    core::QueryContext ctx;
    EXPECT_EQ(parse_distance_reply(*r).record.dist,
              oracle_->distance(0, 1, ctx).dist);
  }

  graph::Graph graph_;
  std::shared_ptr<core::AnyOracle> oracle_;  ///< the real oracle behind gate_
  std::shared_ptr<vicinity::testing::GatedOracle> gate_;
  std::unique_ptr<Server> server_;
};

TEST_F(DeadlineDrainTest, ExpiredRequestAnswersTimeoutNotWrongData) {
  // B waits in the admission queue behind a held batch A until its 50 ms
  // deadline has passed: B must answer TIMEOUT and never reach the oracle,
  // while A, which started in time, still answers OK. A filler holds the
  // event loop while A and B are sent, so one round admits both.
  ServerOptions opts;
  opts.request_timeout_ms = 50;
  opts.max_batch = 1;
  start_server(opts);
  Client client = make_client();

  const std::uint64_t filler = hold_filler(client);
  ASSERT_NE(filler, 0u) << "the flush never reached the gate";
  const std::uint64_t a = client.send_distance(1, 2);
  const std::uint64_t b = client.send_distance(3, 4);
  release_filler(client, filler);
  ASSERT_TRUE(vicinity::testing::queued_units_reach(*server_, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate_->open_gate();

  core::QueryContext ctx;
  for (int i = 0; i < 2; ++i) {
    const std::optional<RawReply> r = client.recv_reply();
    ASSERT_TRUE(r.has_value());
    if (r->header.request_id == a) {
      EXPECT_EQ(parse_distance_reply(*r).record.dist,
                oracle_->distance(1, 2, ctx).dist);
      continue;
    }
    ASSERT_EQ(r->header.request_id, b);
    try {
      (void)parse_distance_reply(*r);
      FAIL() << "expected a TIMEOUT ServerError";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.status(), Status::kTimeout);
      EXPECT_EQ(e.kind(), ClientErrorKind::kServer);
    }
  }
  // The filler and A ran; B did not.
  EXPECT_EQ(gate_->distance_calls(), 2u) << "the expired request ran";
  const StatsReply s = server_->stats_snapshot();
  EXPECT_EQ(s.timeouts_total, 1u);
  // A timed-out request never executed, so it must not contaminate the
  // latency window the engine's percentiles are computed from.
  EXPECT_EQ(s.queries_total, 2u);

  // PING bypasses batching, so the connection itself is still healthy.
  client.ping();
}

TEST_F(DeadlineDrainTest, UpdateIsExemptFromRequestDeadline) {
  // APPLY_UPDATE is an epoch fence: timing it out after it was admitted
  // would leave the client unable to tell whether the mutation applied. The
  // update waits behind a held batch A for twice its deadline, then
  // applies. A filler holds the event loop while A and the update are
  // sent, so one round admits both.
  ServerOptions opts;
  opts.request_timeout_ms = 50;
  opts.max_batch = 1;
  start_server(opts);
  Client client = make_client();

  const std::uint64_t filler = hold_filler(client);
  ASSERT_NE(filler, 0u) << "the flush never reached the gate";
  const std::uint64_t a = client.send_distance(1, 2);
  const std::uint64_t u = client.send_insert_edge(0, 399, 1);
  release_filler(client, filler);
  ASSERT_TRUE(vicinity::testing::queued_units_reach(*server_, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate_->open_gate();

  for (int i = 0; i < 2; ++i) {
    const std::optional<RawReply> r = client.recv_reply();
    ASSERT_TRUE(r.has_value());
    if (r->header.request_id == a) {
      EXPECT_EQ(parse_distance_reply(*r).epoch, 0u);
      continue;
    }
    ASSERT_EQ(r->header.request_id, u);
    EXPECT_EQ(parse_update_reply(*r).epoch, 1u);
  }
  EXPECT_EQ(server_->engine().epoch(), 1u);
  EXPECT_EQ(server_->stats_snapshot().updates_total, 1u);
}

TEST_F(DeadlineDrainTest, IdleConnectionIsEvicted) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  start_server(opts);
  Client client = make_client();
  client.ping();  // a completed request, then silence

  // The server should close us well within 10x the idle budget.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      if (!client.recv_reply().has_value()) {
        closed = true;  // clean EOF from the server
        break;
      }
    } catch (const ClientError&) {
      closed = true;  // RST is also an acceptable eviction signal
      break;
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(server_->stats_snapshot().idle_closes, 1u);
}

TEST_F(DeadlineDrainTest, ActiveConnectionSurvivesIdleSweeps) {
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  start_server(opts);
  Client client = make_client();
  // Keep touching the connection at half the idle budget: it must stay up.
  for (int i = 0; i < 10; ++i) {
    client.ping();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server_->stats_snapshot().idle_closes, 0u);
}

TEST_F(DeadlineDrainTest, SlowLorisPartialFrameIsEvicted) {
  // One byte of a frame header per tick: byte-level activity never
  // completes a frame, so the partial-frame clock must evict it even
  // though the socket is never strictly idle.
  ServerOptions opts;
  opts.idle_timeout_ms = 100;
  start_server(opts);
  Client client = make_client();

  std::vector<std::uint8_t> header(kFrameHeaderBytes, 0);
  FrameHeader h;
  h.op = Op::kPing;
  h.request_id = 1;
  std::vector<std::uint8_t> encoded;
  encode_header(h, encoded);

  bool evicted = false;
  try {
    for (int i = 0; i < 40 && !evicted; ++i) {
      client.send_bytes(encoded.data(), 1);  // same first byte, forever
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  } catch (const ClientError&) {
    evicted = true;  // EPIPE/ECONNRESET once the server dropped us
  }
  if (!evicted) {
    // Sends can succeed into a dead socket's buffer; a read sees the
    // close reliably.
    try {
      evicted = !client.recv_reply().has_value();
    } catch (const ClientError&) {
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted);
  EXPECT_GE(server_->stats_snapshot().slow_client_closes, 1u);
}

TEST_F(DeadlineDrainTest, SlowReaderPastWriteCapIsEvicted) {
  // A reader that never drains its socket while pipelining fan queries
  // accumulates replies in the server's per-connection out buffer; past
  // the cap the server must evict it rather than buffer without bound.
  //
  // A raw socket with a tiny SO_RCVBUF keeps the advertised TCP window
  // small, so the kernel absorbs almost nothing and the overflow lands
  // in the server's out buffer deterministically (auto-tuned loopback
  // buffers would otherwise swallow megabytes and mask the cap).
  ServerOptions opts;
  opts.max_conn_buffer_bytes = 64 * 1024;
  opts.queue_depth = 1u << 20;  // admit everything: ~1 MB of replies
  start_server(opts);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  // One ~12 KB fan reply per request, never read. Loopback kernel
  // buffers absorb ~3-4 MB regardless of the peer's window, so the total
  // reply volume (~7 MB) must overshoot that by far before the cap's
  // eviction is observable.
  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  w.u32(5);     // source
  w.u32(1500);  // fan size
  for (NodeId t = 0; t < 1500; ++t) w.u32(t % 400);
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.op = Op::kDistances;
  std::vector<std::uint8_t> frame;

  for (int i = 0; i < 600; ++i) {
    h.request_id = static_cast<std::uint64_t>(i) + 1;
    frame.clear();
    encode_frame(h, payload, frame);
    std::size_t sent = 0;
    bool dead = false;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        dead = true;  // EPIPE/ECONNRESET: the server already evicted us
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (dead) break;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         server_->stats_snapshot().slow_client_closes == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::close(fd);
  EXPECT_GE(server_->stats_snapshot().slow_client_closes, 1u);
}

TEST_F(DeadlineDrainTest, WellBehavedReaderNeverHitsWriteCap) {
  ServerOptions opts;
  opts.max_conn_buffer_bytes = 64 * 1024;
  start_server(opts);
  Client client = make_client();
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < 390; ++t) targets.push_back(t);
  // Same fan queries, but read every reply: the cap must never fire.
  for (int i = 0; i < 50; ++i) {
    const DistancesReply r = client.distances(5, targets);
    ASSERT_EQ(r.records.size(), targets.size());
  }
  EXPECT_EQ(server_->stats_snapshot().slow_client_closes, 0u);
}

TEST_F(DeadlineDrainTest, DrainDeliversEveryInflightReply) {
  ServerOptions opts;
  opts.max_batch = 1;
  start_server(opts);
  Client client = make_client();
  // Guarantee the connection is accepted before the burst: drain disarms
  // the listen fd, and a connection still in the accept backlog when
  // drain() starts is never served (the kernel resets it at close).
  client.ping();

  // Pipeline a burst behind a held filler. Once the filler finishes, one
  // round admits the whole burst and holds the flush of its first request
  // at the gate (max_batch = 1), so drain() starts with a batch in flight
  // and 199 requests queued; the gate opens once the drain is under way,
  // while a reader thread collects. Every request was admitted before the
  // drain, so every one must be answered OK with the right distance before
  // drain() returns.
  const std::uint64_t filler = hold_filler(client);
  ASSERT_NE(filler, 0u) << "the flush never reached the gate";
  constexpr int kBurst = 200;
  struct Sent {
    std::uint64_t id;
    NodeId s, t;
  };
  std::vector<Sent> sent;
  util::Rng rng(17);
  for (int i = 0; i < kBurst; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    sent.push_back({client.send_distance(s, t), s, t});
  }
  release_filler(client, filler);
  ASSERT_TRUE(vicinity::testing::queued_units_reach(*server_, kBurst - 1));

  std::vector<RawReply> replies;
  std::thread reader([&] {
    // A recv deadline on a saturated CI box must fail the size assertion
    // below, not escape the thread and abort the binary.
    try {
      for (int i = 0; i < kBurst; ++i) {
        std::optional<RawReply> r = client.recv_reply();
        if (!r) break;
        replies.push_back(std::move(*r));
      }
    } catch (const ClientError& e) {
      ADD_FAILURE() << "reader died mid-drain: " << e.what();
    }
  });

  // drain() starts at once on this thread; it cannot finish while the gate
  // holds the event loop.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate_->open_gate();
  });
  EXPECT_TRUE(server_->drain(60'000));
  opener.join();
  reader.join();
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kBurst));

  core::QueryContext ctx;
  for (const RawReply& r : replies) {
    ASSERT_EQ(r.header.status, Status::kOk) << to_string(r.header.status);
    const Sent* want = nullptr;
    for (const Sent& s : sent) {
      if (s.id == r.header.request_id) want = &s;
    }
    ASSERT_NE(want, nullptr);
    const DistanceReply parsed = parse_distance_reply(r);
    EXPECT_EQ(parsed.record.dist,
              oracle_->distance(want->s, want->t, ctx).dist);
  }

  // After a completed drain the server sheds new queries with BUSY
  // rather than admitting work it will never run.
  try {
    (void)client.distance(1, 2);
    FAIL() << "expected BUSY after drain";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.status(), Status::kBusy);
  }
  client.close();
  server_->stop();
  server_.reset();
}

TEST_F(DeadlineDrainTest, DrainOfIdleServerIsImmediate) {
  start_server(ServerOptions{});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(server_->drain(5000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

}  // namespace
}  // namespace vicinity::net
