// In-process end-to-end server tests: a real net::Server on a loopback
// socket, driven through net::Client. The load-bearing assertion is
// bit-identity — every answer served over the wire must equal the answer
// the same QueryEngine gives in-process — plus the serving semantics:
// pipelining, the APPLY_UPDATE epoch fence, BUSY admission shedding,
// STATS accounting and clean shutdown with connections open.
//
// The CI job additionally runs scripts/server_e2e.py against the real
// vicinityd binary (process boundary, SIGTERM path); these tests cover
// the same protocol surface where ASan/TSan can see both sides.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
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

/// A running server over a fresh random graph + its in-process twin engine.
class ServerE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = vicinity::testing::random_connected(600, 2400, /*seed=*/11);
    oracle_ = core::make_any_oracle(
        core::VicinityOracle::build(graph_, small_options()));
    server_ = std::make_unique<Server>(oracle_, &graph_);
    server_->start();
    client_.connect("127.0.0.1", server_->port());
  }

  void TearDown() override {
    client_.close();
    if (server_) server_->stop();
  }

  graph::Graph graph_;
  std::shared_ptr<core::AnyOracle> oracle_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(ServerE2E, PingPongs) { client_.ping(); }

TEST_F(ServerE2E, DistanceMatchesEngineBitForBit) {
  core::QueryContext ctx;
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const DistanceReply got = client_.distance(s, t);
    const core::QueryResult want = oracle_->distance(s, t, ctx);
    EXPECT_EQ(got.record.dist, want.dist) << s << "->" << t;
    EXPECT_EQ(got.record.method, static_cast<std::uint8_t>(want.method));
    EXPECT_EQ(got.record.exact, want.exact);
    EXPECT_EQ(got.epoch, server_->engine().epoch());
  }
}

TEST_F(ServerE2E, DistancesFanMatchesEngine) {
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < 100; ++t) targets.push_back(t * 5);
  const DistancesReply got = client_.distances(42, targets);
  ASSERT_EQ(got.records.size(), targets.size());
  core::QueryContext ctx;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const core::QueryResult want = oracle_->distance(42, targets[i], ctx);
    EXPECT_EQ(got.records[i].dist, want.dist);
    EXPECT_EQ(got.records[i].exact, want.exact);
  }
}

TEST_F(ServerE2E, EmptyDistancesFanIsAnswered) {
  const DistancesReply got = client_.distances(1, {});
  EXPECT_TRUE(got.records.empty());
}

TEST_F(ServerE2E, PathIsValidAndMatchesDistance) {
  util::Rng rng(5);
  core::QueryContext ctx;
  for (int i = 0; i < 50; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const PathReply got = client_.path(s, t);
    const core::PathResult want = oracle_->path(s, t, ctx);
    EXPECT_EQ(got.record.dist, want.dist);
    ASSERT_EQ(got.nodes.size(), want.path.size());
    if (!got.nodes.empty()) {
      EXPECT_EQ(got.nodes.front(), s);
      EXPECT_EQ(got.nodes.back(), t);
      EXPECT_EQ(got.nodes.size(), static_cast<std::size_t>(want.dist) + 1);
    }
  }
}

TEST_F(ServerE2E, PipelinedResponsesMatchByRequestId) {
  // Fire a burst without reading, then collect and match by id — the
  // server batches, so completion order is not submission order.
  struct Sent {
    std::uint64_t id;
    NodeId s, t;
  };
  std::vector<Sent> sent;
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    const NodeId t = static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
    sent.push_back({client_.send_distance(s, t), s, t});
  }
  std::vector<DistanceReply> got(sent.size());
  std::vector<bool> seen(sent.size(), false);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    auto r = client_.recv_reply();
    ASSERT_TRUE(r.has_value());
    const std::uint64_t id = r->header.request_id;
    std::size_t slot = sent.size();
    for (std::size_t k = 0; k < sent.size(); ++k) {
      if (sent[k].id == id) slot = k;
    }
    ASSERT_LT(slot, sent.size()) << "unknown request id " << id;
    EXPECT_FALSE(seen[slot]) << "duplicate response for id " << id;
    seen[slot] = true;
    got[slot] = parse_distance_reply(*r);
  }
  core::QueryContext ctx;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const core::QueryResult want =
        oracle_->distance(sent[i].s, sent[i].t, ctx);
    EXPECT_EQ(got[i].record.dist, want.dist);
  }
}

TEST_F(ServerE2E, ApplyUpdateAdvancesEpochAndChangesAnswers) {
  // Find a non-adjacent pair at distance > 1, then insert the edge.
  const NodeId s = 0;
  NodeId t = 0;
  core::QueryContext ctx;
  for (NodeId cand = 1; cand < graph_.num_nodes(); ++cand) {
    if (oracle_->distance(s, cand, ctx).dist > 2) {
      t = cand;
      break;
    }
  }
  ASSERT_NE(t, 0u) << "graph too dense for the test premise";

  const std::uint64_t epoch_before = server_->engine().epoch();
  const DistanceReply before = client_.distance(s, t);
  EXPECT_GT(before.record.dist, 2u);
  EXPECT_EQ(before.epoch, epoch_before);

  const UpdateReply up = client_.insert_edge(s, t, 1);
  EXPECT_EQ(up.epoch, epoch_before + 1);

  const DistanceReply after = client_.distance(s, t);
  EXPECT_EQ(after.record.dist, 1u);
  EXPECT_EQ(after.epoch, epoch_before + 1);

  const UpdateReply down = client_.remove_edge(s, t);
  EXPECT_EQ(down.epoch, epoch_before + 2);
  const DistanceReply restored = client_.distance(s, t);
  EXPECT_EQ(restored.record.dist, before.record.dist);
}

TEST_F(ServerE2E, ConcurrentUpdateStreamKeepsAnswersEpochConsistent) {
  // One thread toggles an edge while others hammer distance queries. Every
  // response must be internally consistent: the served distance must match
  // an engine answer possible at SOME epoch, and epochs must only grow.
  const NodeId s = 0;
  NodeId t = 0;
  core::QueryContext ctx;
  for (NodeId cand = 1; cand < graph_.num_nodes(); ++cand) {
    if (oracle_->distance(s, cand, ctx).dist > 2) {
      t = cand;
      break;
    }
  }
  ASSERT_NE(t, 0u);
  const Distance far_dist = oracle_->distance(s, t, ctx).dist;

  std::atomic<bool> stop{false};
  std::thread updater([&] {
    Client uc;
    uc.connect("127.0.0.1", server_->port());
    for (int i = 0; i < 20; ++i) {
      uc.insert_edge(s, t, 1);
      uc.remove_edge(s, t);
    }
    stop.store(true);
  });

  Client qc;
  qc.connect("127.0.0.1", server_->port());
  std::uint64_t last_epoch = 0;
  int checked = 0;
  while (!stop.load()) {
    const DistanceReply r = qc.distance(s, t);
    EXPECT_GE(r.epoch, last_epoch) << "epoch went backwards";
    last_epoch = r.epoch;
    // With the edge present the distance is 1; absent it is far_dist.
    // Any other value means a query observed a half-applied update.
    EXPECT_TRUE(r.record.dist == 1 || r.record.dist == far_dist)
        << "inconsistent distance " << r.record.dist;
    ++checked;
  }
  updater.join();
  EXPECT_GT(checked, 0);
  EXPECT_EQ(server_->engine().epoch(), 40u);
}

/// A server over a GatedOracle: a test holds the event loop inside a flush
/// (vicinity::testing::hold_flush) while it sends a backlog, so what each
/// later flush takes is deterministic.
class GatedServer : public ::testing::Test {
 protected:
  void start(ServerOptions opts) {
    graph_ = vicinity::testing::random_connected(300, 1000, 13);
    oracle_ = core::make_any_oracle(
        core::VicinityOracle::build(graph_, small_options()));
    gate_ = std::make_shared<vicinity::testing::GatedOracle>(oracle_);
    server_ = std::make_unique<Server>(gate_, &graph_, opts);
    server_->start();
    client_.connect("127.0.0.1", server_->port());
  }

  void TearDown() override {
    if (gate_) gate_->open_gate();  // stop() joins a loop held at the gate
    client_.close();
    if (server_) server_->stop();
  }

  /// Sends DISTANCE(0, 1) and waits until its flush holds the event loop
  /// at the gate.
  std::uint64_t hold() {
    return vicinity::testing::hold_flush(*gate_, client_, 0, 1);
  }

  /// Waits until the server's kernel holds every byte sent so far.
  void wait_acked() {
    ASSERT_TRUE(vicinity::testing::wait_acked(client_))
        << "the backlog never reached the server";
  }

  /// The next reply, or a failure on EOF.
  RawReply recv_one() {
    std::optional<RawReply> r = client_.recv_reply();
    if (!r) {
      ADD_FAILURE() << "EOF where a reply was expected";
      return {};
    }
    return std::move(*r);
  }

  /// The next n replies, keyed by request id.
  std::map<std::uint64_t, RawReply> recv_replies(std::size_t n) {
    std::map<std::uint64_t, RawReply> got;
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<RawReply> r = client_.recv_reply();
      if (!r) {
        ADD_FAILURE() << "EOF after " << i << " of " << n << " replies";
        break;
      }
      const std::uint64_t id = r->header.request_id;
      got.emplace(id, std::move(*r));
    }
    return got;
  }

  graph::Graph graph_;
  std::shared_ptr<core::AnyOracle> oracle_;  ///< the real oracle behind gate_
  std::shared_ptr<vicinity::testing::GatedOracle> gate_;
  std::unique_ptr<Server> server_;
  Client client_;
};

class ServerAdmission : public GatedServer {};
class ServerBatching : public GatedServer {};

TEST_F(ServerAdmission, ShedsWithBusyPastQueueDepth) {
  ServerOptions opts;
  opts.queue_depth = 4;  // tiny: a pipelined burst must overflow it
  start(opts);
  // The burst waits unread behind the held flush; the round after it reads
  // the whole burst before it runs the next flush, so exactly queue_depth
  // requests are admitted and the rest are shed at once. The STATS behind
  // the burst is answered in that same round, before the admitted four run.
  const std::uint64_t held = hold();
  ASSERT_NE(held, 0u) << "the flush never reached the gate";
  constexpr int kBurst = 64;
  constexpr int kAdmitted = 4;
  std::vector<std::uint64_t> burst;
  for (int i = 0; i < kBurst; ++i) burst.push_back(client_.send_distance(0, 1));
  const std::uint64_t stats = client_.send_stats();
  wait_acked();
  gate_->open_gate();

  const RawReply first = recv_one();
  EXPECT_EQ(first.header.request_id, held);
  EXPECT_EQ(first.header.status, Status::kOk);
  for (int i = kAdmitted; i < kBurst; ++i) {
    const RawReply r = recv_one();
    EXPECT_EQ(r.header.request_id, burst[i]) << "reply " << i;
    ASSERT_EQ(r.header.status, Status::kBusy) << "reply " << i;
  }
  const RawReply st = recv_one();
  ASSERT_EQ(st.header.request_id, stats);
  EXPECT_EQ(parse_stats_reply(st).pending, 4u);
  for (int i = 0; i < kAdmitted; ++i) {
    const RawReply r = recv_one();
    EXPECT_EQ(r.header.request_id, burst[i]) << "reply " << i;
    EXPECT_EQ(r.header.status, Status::kOk) << "reply " << i;
  }
  EXPECT_EQ(server_->stats_snapshot().shed_total,
            static_cast<std::uint64_t>(kBurst - kAdmitted));
}

TEST_F(ServerBatching, BacklogBehindRunningBatchRunsAsOneFlush) {
  start(ServerOptions{});
  ASSERT_NE(hold(), 0u) << "the flush never reached the gate";
  // 12 DISTANCE + one 8-target DISTANCES: a 20-unit backlog.
  std::vector<std::uint64_t> backlog;
  for (NodeId t = 0; t < 12; ++t) {
    backlog.push_back(client_.send_distance(5, t));
  }
  const std::vector<NodeId> targets{1, 2, 3, 4, 6, 7, 8, 9};
  backlog.push_back(client_.send_distances(5, targets));
  wait_acked();
  gate_->open_gate();

  const auto got = recv_replies(backlog.size() + 1);
  ASSERT_EQ(got.size(), backlog.size() + 1);
  for (const std::uint64_t id : backlog) {
    const RawReply& r = got.at(id);
    ASSERT_EQ(r.header.status, Status::kOk);
    const std::uint64_t epoch = r.header.op == Op::kDistances
                                    ? parse_distances_reply(r).epoch
                                    : parse_distance_reply(r).epoch;
    EXPECT_EQ(epoch, 0u);
  }
  const StatsReply stats = server_->stats_snapshot();
  EXPECT_EQ(stats.batches_total, 2u);  // the held batch + one for the backlog
  EXPECT_EQ(stats.max_batch, 20u);
}

TEST_F(ServerBatching, MaxBatchSplitsBacklogIntoFlushes) {
  ServerOptions opts;
  opts.max_batch = 4;
  start(opts);
  ASSERT_NE(hold(), 0u) << "the flush never reached the gate";
  for (NodeId t = 0; t < 10; ++t) client_.send_distance(5, t);
  wait_acked();
  gate_->open_gate();

  const auto got = recv_replies(11);
  ASSERT_EQ(got.size(), 11u);
  for (const auto& [id, r] : got) {
    EXPECT_EQ(r.header.status, Status::kOk) << "request " << id;
  }
  const StatsReply stats = server_->stats_snapshot();
  EXPECT_EQ(stats.batches_total, 1u + 3u);  // held, then 4 + 4 + 2 units
  EXPECT_EQ(stats.max_batch, 4u);
}

TEST_F(ServerBatching, UpdateInBacklogRunsAloneAsAFence) {
  start(ServerOptions{});
  core::QueryContext ctx;
  const NodeId s = 0;
  NodeId t = 0;
  for (NodeId cand = 1; cand < graph_.num_nodes(); ++cand) {
    if (oracle_->distance(s, cand, ctx).dist > 2) {
      t = cand;
      break;
    }
  }
  ASSERT_NE(t, 0u) << "graph too dense for the test premise";
  const Distance far = oracle_->distance(s, t, ctx).dist;

  ASSERT_NE(hold(), 0u) << "the flush never reached the gate";
  const std::uint64_t before = client_.send_distance(s, t);
  const std::uint64_t update = client_.send_insert_edge(s, t, 1);
  const std::uint64_t after = client_.send_distance(s, t);
  wait_acked();
  gate_->open_gate();

  const auto got = recv_replies(4);
  ASSERT_EQ(got.size(), 4u);
  const DistanceReply b = parse_distance_reply(got.at(before));
  const UpdateReply u = parse_update_reply(got.at(update));
  const DistanceReply a = parse_distance_reply(got.at(after));
  EXPECT_EQ(b.epoch, 0u);
  EXPECT_EQ(b.record.dist, far);
  EXPECT_EQ(u.epoch, 1u);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.record.dist, 1u);
  // The two queries ran in separate one-unit flushes on either side of the
  // update; the update's own flush runs no query batch.
  const StatsReply stats = server_->stats_snapshot();
  EXPECT_EQ(stats.batches_total, 3u);
  EXPECT_EQ(stats.max_batch, 1u);
}

TEST_F(ServerBatching, DistancesWiderThanMaxBatchRunsWhole) {
  ServerOptions opts;
  opts.max_batch = 4;
  start(opts);
  ASSERT_NE(hold(), 0u) << "the flush never reached the gate";
  std::vector<NodeId> targets;
  for (NodeId t = 10; t < 20; ++t) targets.push_back(t);
  const std::uint64_t wide = client_.send_distances(5, targets);
  const std::uint64_t next = client_.send_distance(5, 6);
  wait_acked();
  gate_->open_gate();

  const auto got = recv_replies(3);
  ASSERT_EQ(got.size(), 3u);
  const DistancesReply fan = parse_distances_reply(got.at(wide));
  ASSERT_EQ(fan.records.size(), targets.size());
  core::QueryContext ctx;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(fan.records[i].dist, oracle_->distance(5, targets[i], ctx).dist);
  }
  EXPECT_EQ(parse_distance_reply(got.at(next)).record.dist,
            oracle_->distance(5, 6, ctx).dist);
  const StatsReply stats = server_->stats_snapshot();
  EXPECT_EQ(stats.max_batch, targets.size());  // one flush ran all 10 units
  EXPECT_EQ(stats.batches_total, 3u);          // held, the fan, then `next`
}

TEST_F(ServerBatching, PingBetweenFlushesIsAnsweredBeforeQueuedWork) {
  // A PING that arrives while a flush runs is read, and answered, before
  // the flush queued behind the running one starts.
  ServerOptions opts;
  opts.max_batch = 1;
  start(opts);
  const std::uint64_t a = hold();
  ASSERT_NE(a, 0u) << "the flush never reached the gate";
  const std::uint64_t b = client_.send_distance(5, 6);
  const std::uint64_t c = client_.send_distance(5, 7);
  wait_acked();
  gate_->let_through(1);  // A runs; B's flush is held, C queues behind it
  ASSERT_TRUE(vicinity::testing::queued_units_reach(*server_, 1));
  const std::uint64_t ping = client_.send_ping();
  wait_acked();
  gate_->open_gate();

  const std::uint64_t want[] = {a, b, ping, c};
  for (const std::uint64_t id : want) {
    const RawReply r = recv_one();
    EXPECT_EQ(r.header.request_id, id);
    EXPECT_EQ(r.header.status, Status::kOk);
  }
  EXPECT_EQ(gate_->distance_calls(), 3u);
}

TEST_F(ServerE2E, StatsCountTraffic) {
  const StatsReply before = client_.stats();
  for (int i = 0; i < 10; ++i) client_.distance(1, 2);
  std::vector<NodeId> targets{1, 2, 3};
  client_.distances(0, targets);
  const StatsReply after = client_.stats();
  EXPECT_EQ(after.queries_total, before.queries_total + 13);
  EXPECT_GE(after.requests_total, before.requests_total + 12);
  EXPECT_GT(after.batches_total, before.batches_total);
  EXPECT_EQ(after.connections_open, 1u);
  EXPECT_GT(after.p99_us, 0.0);
  EXPECT_GE(after.p99_us, after.p50_us);
  EXPECT_GT(after.qps, 0.0);
}

TEST(ServerCacheE2E, CachedServerCountsHitsAndInvalidatesOnUpdate) {
  // A --cache-mb server: repeated pairs must be answered bit-identically to
  // the oracle while the STATS cache counters climb, and an APPLY_UPDATE
  // must make every cached entry stale (the next pass misses, re-fills, and
  // still matches the post-update oracle).
  graph::Graph g = vicinity::testing::random_connected(600, 2400, 17);
  auto oracle =
      core::make_any_oracle(core::VicinityOracle::build(g, small_options()));
  ServerOptions opts;
  opts.cache_mb = 8;
  Server server(oracle, &g, opts);
  server.start();
  Client c;
  c.connect("127.0.0.1", server.port());

  util::Rng rng(19);
  std::vector<std::pair<NodeId, NodeId>> pairs(32);
  for (auto& p : pairs) {
    p = {static_cast<NodeId>(rng.next_below(g.num_nodes())),
         static_cast<NodeId>(rng.next_below(g.num_nodes()))};
  }
  core::QueryContext ctx;
  const auto verify_pass = [&] {
    for (const auto& [s, t] : pairs) {
      const DistanceReply got = c.distance(s, t);
      const core::QueryResult want = oracle->distance(s, t, ctx);
      ASSERT_EQ(got.record.dist, want.dist) << s << "->" << t;
      ASSERT_EQ(got.record.method, static_cast<std::uint8_t>(want.method));
      ASSERT_EQ(got.record.exact, want.exact);
    }
  };

  verify_pass();  // cold: fills
  verify_pass();  // warm: every pair repeats
  const StatsReply warm = c.stats();
  EXPECT_GE(warm.cache_hits, pairs.size());
  EXPECT_GT(warm.cache_inserts, 0u);
  EXPECT_GT(warm.cache_hit_rate, 0.0);

  // Mutate the graph; epoch-keyed entries must all go stale.
  NodeId u = 0, v = 0;
  while (true) {
    u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (u != v && !g.has_edge(u, v)) break;
  }
  c.insert_edge(u, v, 1);
  verify_pass();  // post-update pass: no stale answer may leak through
  const StatsReply cold = c.stats();
  // The first post-update pass cannot hit (all entries carry the old
  // epoch), so misses grew by at least the pair count.
  EXPECT_GE(cold.cache_misses, warm.cache_misses + pairs.size());
  verify_pass();  // and the re-filled cache serves the new epoch
  const StatsReply rewarm = c.stats();
  EXPECT_GE(rewarm.cache_hits, cold.cache_hits + pairs.size());

  c.close();
  server.stop();
}

TEST_F(ServerE2E, FrozenServerRefusesUpdates) {
  ServerOptions opts;
  Server frozen(oracle_, /*graph=*/nullptr, opts);
  frozen.start();
  Client c;
  c.connect("127.0.0.1", frozen.port());
  try {
    c.insert_edge(0, 5, 1);
    FAIL() << "expected ServerError";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.status(), Status::kError);
  }
  c.distance(0, 5);  // connection must survive the refusal
  c.close();
  frozen.stop();
}

TEST_F(ServerE2E, StopWithConnectedClientsIsClean) {
  Client extra;
  extra.connect("127.0.0.1", server_->port());
  extra.ping();
  server_->stop();  // must join cleanly with two live connections
  EXPECT_FALSE(server_->running());
  // The peer observes EOF, not a hang.
  auto r = extra.recv_reply();
  EXPECT_FALSE(r.has_value());
}

TEST_F(ServerE2E, RestartOnSamePortObject) {
  server_->stop();
  server_->start();  // a stopped server can start again
  Client c;
  c.connect("127.0.0.1", server_->port());
  c.ping();
  c.close();
}

}  // namespace
}  // namespace vicinity::net
