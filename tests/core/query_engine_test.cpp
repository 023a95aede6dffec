// QueryEngine concurrency: a batch answered with 1 thread and with 8
// threads must be bit-identical (the index is shared-immutable; every
// mutable byte lives in a per-lane QueryContext). Runs under the
// VICINITY_SANITIZE builds (ASan/UBSan and TSan) in CI.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "core/query_engine.h"
#include "gen/rmat.h"
#include "gen/watts_strogatz.h"
#include "graph/components.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

graph::Graph rmat_graph() {
  util::Rng rng(901);
  gen::RmatParams params;
  auto g = gen::rmat(/*scale=*/10, /*edges=*/6000, params, rng);
  return graph::largest_component(g).graph;
}

graph::Graph ws_graph() {
  util::Rng rng(902);
  return gen::watts_strogatz(/*n=*/1200, /*k=*/4, /*beta=*/0.1, rng);
}

std::vector<Query> random_queries(const graph::Graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(Query{static_cast<NodeId>(rng.next_below(g.num_nodes())),
                            static_cast<NodeId>(rng.next_below(g.num_nodes()))});
  }
  return queries;
}

void expect_identical(const std::vector<QueryResult>& a,
                      const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dist, b[i].dist) << "query " << i;
    ASSERT_EQ(a[i].method, b[i].method) << "query " << i;
    ASSERT_EQ(a[i].hash_lookups, b[i].hash_lookups) << "query " << i;
    ASSERT_EQ(a[i].exact, b[i].exact) << "query " << i;
  }
}

TEST(QueryEngineTest, OneVsEightThreadsIdenticalOnRmat) {
  const auto g = rmat_graph();
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 903;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)),
                     /*threads=*/8);
  const auto queries = random_queries(g, 800, 904);

  const auto one = engine.run_batch(queries, 1);
  const auto eight = engine.run_batch(queries, 8);
  expect_identical(one, eight);
  const auto dflt = engine.run_batch(queries);  // every pool worker
  expect_identical(one, dflt);
}

TEST(QueryEngineTest, OneVsEightThreadsIdenticalOnWattsStrogatz) {
  const auto g = ws_graph();
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 905;
  opt.fallback = Fallback::kLandmarkEstimate;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)),
                     /*threads=*/8);
  const auto queries = random_queries(g, 800, 906);
  expect_identical(engine.run_batch(queries, 1), engine.run_batch(queries, 8));
}

TEST(QueryEngineTest, MatchesSequentialOracleAndReference) {
  const auto g = rmat_graph();
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 907;
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = std::make_shared<const VicinityOracle>(
      VicinityOracle::build(g, opt));
  QueryEngine engine(make_any_oracle(oracle), 4);
  const auto queries = random_queries(g, 300, 908);
  const auto batch = engine.run_batch(queries);
  QueryContext ctx;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto seq = oracle->distance(queries[i].s, queries[i].t, ctx);
    ASSERT_EQ(batch[i].dist, seq.dist);
    ASSERT_EQ(batch[i].method, seq.method);
    ASSERT_TRUE(batch[i].exact);
    ASSERT_EQ(batch[i].dist,
              testing::ref_distance(g, queries[i].s, queries[i].t));
  }
  EXPECT_EQ(ctx.stats().queries, queries.size());
}

TEST(QueryEngineTest, StatsAccountForEveryQuery) {
  const auto g = ws_graph();
  OracleOptions opt;
  opt.seed = 909;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)), 4);
  const auto queries = random_queries(g, 500, 910);
  engine.run_batch(queries, 4);
  engine.run_batch(queries, 2);

  const QueryStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2 * queries.size());
  std::uint64_t by_method_total = 0;
  for (const auto c : stats.by_method) by_method_total += c;
  EXPECT_EQ(by_method_total, stats.queries);
  EXPECT_EQ(stats.exact, stats.queries);  // exact fallback answers everything

  engine.reset_stats();
  EXPECT_EQ(engine.stats().queries, 0u);
}

TEST(QueryEngineTest, MoreLanesThanPoolWorkers) {
  const auto g = ws_graph();
  OracleOptions opt;
  opt.seed = 911;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)),
                     /*threads=*/2);
  const auto queries = random_queries(g, 400, 912);
  expect_identical(engine.run_batch(queries, 1), engine.run_batch(queries, 6));
}

TEST(QueryEngineTest, LaneContextGrowthAcrossBatchesStaysIdentical) {
  // Regression for the thread-safety refactor of run_batch: workers now
  // receive a pointer snapshot of the per-lane contexts taken under the
  // batch lock (the lambda no longer reaches through `this` into the
  // guarded contexts_ vector). Growing the context vector between batches
  // must hand every lane a valid context and keep results bit-identical.
  const auto g = ws_graph();
  OracleOptions opt;
  opt.seed = 916;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)),
                     /*threads=*/4);
  const auto queries = random_queries(g, 400, 917);
  const auto one = engine.run_batch(queries, 1);
  expect_identical(one, engine.run_batch(queries, 2));
  expect_identical(one, engine.run_batch(queries, 7));  // grows contexts_
  expect_identical(one, engine.run_batch(queries, 3));  // reuses the pool
}

TEST(QueryEngineTest, WorkerExceptionPropagatesAndEngineSurvives) {
  const auto g = ws_graph();
  OracleOptions opt;
  opt.seed = 913;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)), 4);
  auto queries = random_queries(g, 100, 914);
  queries[57].t = static_cast<NodeId>(g.num_nodes() + 5);  // out of range
  EXPECT_THROW(engine.run_batch(queries, 4), std::out_of_range);
  // The pool drained and the engine keeps serving.
  queries[57].t = 0;
  const auto results = engine.run_batch(queries, 4);
  EXPECT_EQ(results.size(), queries.size());
}

TEST(QueryEngineTest, EmptyBatchAndSizeMismatch) {
  const auto g = testing::karate_club();
  OracleOptions opt;
  opt.seed = 915;
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)), 2);
  EXPECT_TRUE(engine.run_batch({}).empty());
  std::vector<Query> queries(3);
  std::vector<QueryResult> results(2);
  EXPECT_THROW(engine.run_batch(queries, results, 2), std::invalid_argument);
}

TEST(QueryEngineTest, NullOracleRejected) {
  EXPECT_THROW(QueryEngine(std::shared_ptr<const AnyOracle>{}, 2),
               std::invalid_argument);
}

TEST(QueryEngineTest, DirectedOracleContextQueriesAreConst) {
  // The directed oracle shares the context pattern: concurrent callers use
  // distance(s, t, ctx) on a const oracle.
  util::Rng rng(916);
  gen::RmatParams params;
  params.directed = true;
  const auto g = gen::rmat(9, 3000, params, rng);
  OracleOptions opt;
  opt.seed = 917;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto oracle = VicinityOracle::build(g, opt);
  QueryContext a, b;
  util::Rng qrng(918);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto ra = oracle.distance(s, t, a);
    const auto rb = oracle.distance(s, t, b);
    ASSERT_EQ(ra.dist, rb.dist);
    ASSERT_EQ(ra.method, rb.method);
  }
  EXPECT_EQ(a.stats().queries, 200u);
}

}  // namespace
}  // namespace vicinity::core
