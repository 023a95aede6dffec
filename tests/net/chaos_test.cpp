// Chaos tests (ctest -L chaos): replay seeded syscall-fault schedules
// through a live in-process server/client pair and assert the three
// fault-tolerance invariants — no crash, no leaked connection, no wrong
// answer. The injector (util/fault_inject.h) fires on the server's
// event-loop thread, which reads, runs and answers every request; the
// driving client thread holds a FaultSuppressScope so its own syscalls
// stay clean and every completed reply can be checked bit-for-bit against
// the in-process oracle.
//
// Determinism: each schedule is a pure function of its seed, so a
// failure reproduces by seed alone. Under ASan these tests double as
// leak checks on every error path the schedule happens to take.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/any_oracle.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "test_support.h"
#include "util/fault_inject.h"

namespace vicinity::net {
namespace {

using util::FaultInjector;
using util::FaultPlan;
using util::FaultSuppressScope;

core::OracleOptions small_options() {
  core::OracleOptions opts;
  opts.seed = 7;
  return opts;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disable();
    graph_ = vicinity::testing::random_connected(400, 1600, /*seed=*/31);
    oracle_ = core::make_any_oracle(
        core::VicinityOracle::build(graph_, small_options()));
  }

  void TearDown() override {
    FaultInjector::instance().disable();
    if (server_) server_->stop();
  }

  void start_server(ServerOptions opts = {}) {
    server_ = std::make_unique<Server>(oracle_, &graph_, opts);
    server_->start();
  }

  Client make_client(std::uint32_t recv_timeout_ms = 2000) {
    FaultSuppressScope suppress;  // the client's own connect stays clean
    Client c(ClientOptions{recv_timeout_ms});
    c.connect("127.0.0.1", server_->port());
    return c;
  }

  graph::Graph graph_;
  std::shared_ptr<core::AnyOracle> oracle_;
  std::unique_ptr<Server> server_;
};

TEST_F(ChaosTest, BenignScheduleIsInvisibleToClients) {
  // EINTR, EAGAIN and short reads/writes are retryable by construction:
  // under any such schedule every request must complete with the exact
  // oracle answer — the faults cost retries, never correctness.
  start_server();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.eintr = 0.05;
    plan.eagain = 0.05;
    plan.short_io = 0.25;
    FaultInjector::instance().configure(plan);

    FaultSuppressScope suppress;  // faults fire on server threads only
    Client client = make_client();
    core::QueryContext ctx;
    util::Rng rng(seed);
    for (int i = 0; i < 150; ++i) {
      const NodeId s =
          static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
      const NodeId t =
          static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
      const DistanceReply got = client.distance(s, t);
      const core::QueryResult want = oracle_->distance(s, t, ctx);
      ASSERT_EQ(got.record.dist, want.dist)
          << "seed " << seed << ": " << s << "->" << t;
      ASSERT_EQ(got.record.exact, want.exact);
    }
    EXPECT_GT(FaultInjector::instance().counters().injected(), 0u)
        << "schedule " << seed << " never fired — the test proved nothing";
    client.close();
  }
}

TEST_F(ChaosTest, DestructiveScheduleNeverServesWrongAnswers) {
  // Add connection resets and allocation failures: connections may now
  // die mid-request, but every reply that does complete must still be
  // bit-identical, and the server itself must survive the whole run.
  start_server();
  for (const std::uint64_t seed : {11ull, 12ull}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.eintr = 0.03;
    plan.eagain = 0.03;
    plan.short_io = 0.15;
    plan.conn_reset = 0.01;
    plan.alloc_fail = 0.005;
    FaultInjector::instance().configure(plan);

    FaultSuppressScope suppress;
    Client client = make_client();
    core::QueryContext ctx;
    util::Rng rng(seed * 97);
    int completed = 0;
    int reconnects = 0;
    for (int i = 0; i < 200; ++i) {
      const NodeId s =
          static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
      const NodeId t =
          static_cast<NodeId>(rng.next_below(graph_.num_nodes()));
      try {
        const DistanceReply got = client.distance(s, t);
        const core::QueryResult want = oracle_->distance(s, t, ctx);
        ASSERT_EQ(got.record.dist, want.dist)
            << "seed " << seed << ": " << s << "->" << t;
        ++completed;
      } catch (const ClientError&) {
        // The schedule killed this connection; that is allowed. A wrong
        // answer is not. Reconnect and keep going.
        client.close();
        client = make_client();
        ++reconnects;
      }
    }
    EXPECT_GT(completed, 0) << "seed " << seed;
    client.close();
  }

  // The server must have contained every fault: after disarming, a fresh
  // connection works and no connection slots leaked.
  FaultInjector::instance().disable();
  Client fresh = make_client();
  fresh.ping();
  const StatsReply s = server_->stats_snapshot();
  EXPECT_EQ(s.connections_open, 1u);  // just `fresh`
}

TEST_F(ChaosTest, InjectedEmfileShedsWithoutStallingAccepts) {
  // Regression for the accept4 EMFILE busy-spin: under fd pressure the
  // server sheds via the spare fd and disarms the listener briefly; it
  // must keep accepting once the pressure clears rather than spinning or
  // deafening itself permanently.
  start_server();
  FaultPlan plan;
  plan.seed = 5;
  plan.emfile = 0.7;
  FaultInjector::instance().configure(plan);

  FaultSuppressScope suppress;
  int successes = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (successes < 10 && std::chrono::steady_clock::now() < deadline) {
    try {
      Client c(ClientOptions{/*recv_timeout_ms=*/1000});
      c.connect("127.0.0.1", server_->port());
      c.ping();
      ++successes;
      c.close();
    } catch (const ClientError&) {
      // Shed by the overload path (accepted-then-closed or still in the
      // backlog while the listener is disarmed). Try again.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(successes, 10);
  EXPECT_GT(FaultInjector::instance().counters().emfile, 0u)
      << "EMFILE never injected — the test proved nothing";

  // Pressure clears: the very next connection must work first try.
  FaultInjector::instance().disable();
  Client c = make_client();
  c.ping();
}

TEST_F(ChaosTest, AllocFailureKillsOneConnectionNotTheServer) {
  // Allocation failure during connection-buffer growth must close that
  // connection (bad_alloc containment in the io loop) and nothing else.
  start_server();
  // Big enough that both the request (~6 KB) and the reply (~12 KB)
  // overflow a fresh connection's 4 KB ring buffers and force growth —
  // the injection choke point.
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < 1500; ++t) targets.push_back(t % 400);

  FaultPlan plan;
  plan.seed = 23;
  plan.alloc_fail = 0.3;
  FaultInjector::instance().configure(plan);

  FaultSuppressScope suppress;
  int killed = 0;
  for (int round = 0; round < 30; ++round) {
    try {
      Client c = make_client();
      // Big fan replies force out-buffer growth, the alloc choke point.
      for (int i = 0; i < 5; ++i) {
        const DistancesReply r = c.distances(3, targets);
        ASSERT_EQ(r.records.size(), targets.size());
      }
      c.close();
    } catch (const ClientError&) {
      ++killed;
    }
  }
  EXPECT_GT(FaultInjector::instance().counters().alloc_fail, 0u)
      << "allocation failure never injected — the test proved nothing";

  // Containment: the server is still fully alive for the next client.
  FaultInjector::instance().disable();
  Client c = make_client();
  c.ping();
  const DistancesReply r = c.distances(3, targets);
  EXPECT_EQ(r.records.size(), targets.size());
  EXPECT_EQ(server_->stats_snapshot().connections_open, 1u);
}

TEST_F(ChaosTest, DrainUnderBenignFaultsStillDeliversEverything) {
  // Graceful drain composed with a benign fault schedule: the drain
  // barrier must hold even when every flush syscall can stutter.
  start_server();

  FaultPlan plan;
  plan.seed = 41;
  plan.eintr = 0.05;
  plan.short_io = 0.2;
  FaultInjector::instance().configure(plan);

  FaultSuppressScope suppress;
  // Generous recv deadline: the whole suite may be saturating every core
  // around this test, and a deadline firing here must fail the assertion
  // below, not abort the binary — so the reader also swallows the typed
  // timeout instead of letting it escape the thread.
  Client client = make_client(/*recv_timeout_ms=*/60000);
  // One synchronous round-trip before the burst: drain disarms the listen
  // fd, so on a loaded box a connection still sitting in the accept
  // backlog when drain() starts would never be served at all. The ping
  // guarantees this connection is accepted — after that, every pipelined
  // request is read during the drain and answered (OK or BUSY).
  client.ping();
  constexpr int kBurst = 100;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    ids.push_back(client.send_distance(static_cast<NodeId>(i % 400),
                                       static_cast<NodeId>((i * 7) % 400)));
  }
  int delivered = 0;
  std::thread reader([&] {
    FaultSuppressScope reader_suppress;
    try {
      for (int i = 0; i < kBurst; ++i) {
        std::optional<RawReply> r = client.recv_reply();
        if (!r) break;
        EXPECT_TRUE(r->header.status == Status::kOk ||
                    r->header.status == Status::kBusy);
        ++delivered;
      }
    } catch (const ClientError& e) {
      ADD_FAILURE() << "reader died mid-drain: " << e.what();
    }
  });
  EXPECT_TRUE(server_->drain(60'000));
  reader.join();
  EXPECT_EQ(delivered, kBurst);
}

}  // namespace
}  // namespace vicinity::net
