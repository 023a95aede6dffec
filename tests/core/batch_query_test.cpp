// Parallel batch queries (§5 parallelization challenge): QueryEngine's
// run_batch answers must be identical to sequential queries for any thread
// count and any fallback.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/oracle.h"
#include "core/query_engine.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

std::vector<Query> random_queries(const graph::Graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    q.s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }
  return queries;
}

/// Builds the oracle behind a const, shared handle so the test can both
/// serve it through an engine and query it sequentially.
std::shared_ptr<const VicinityOracle> build(const graph::Graph& g,
                                            const OracleOptions& opt) {
  return std::make_shared<const VicinityOracle>(VicinityOracle::build(g, opt));
}

class BatchQueryTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BatchQueryTest, MatchesSequentialAcrossThreadCounts) {
  const auto g = testing::random_connected(900, 3600, 601);
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 602;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto oracle = build(g, opt);
  const auto queries = random_queries(g, 500, 603);

  QueryEngine engine(make_any_oracle(oracle), GetParam());
  const auto batch = engine.run_batch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  QueryContext ctx;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto seq = oracle->distance(queries[i].s, queries[i].t, ctx);
    ASSERT_EQ(batch[i].dist, seq.dist) << "pair " << i;
    ASSERT_EQ(batch[i].method, seq.method);
    ASSERT_EQ(batch[i].hash_lookups, seq.hash_lookups);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchQueryTest,
                         ::testing::Values(1u, 2u, 4u, 7u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(BatchQueryTest, EmptyBatch) {
  const auto g = testing::karate_club();
  OracleOptions opt;
  opt.seed = 604;
  QueryEngine engine(make_any_oracle(build(g, opt)), 4);
  EXPECT_TRUE(engine.run_batch(std::vector<Query>{}).empty());
}

TEST(BatchQueryTest, ExactWithFallbackEverywhere) {
  const auto g = testing::random_connected(700, 2100, 605);
  OracleOptions opt;
  opt.alpha = 0.5;  // force plenty of fallbacks
  opt.seed = 606;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(build(g, opt)), 4);
  const auto queries = random_queries(g, 300, 607);
  const auto batch = engine.run_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].exact);
    ASSERT_EQ(batch[i].dist,
              testing::ref_distance(g, queries[i].s, queries[i].t));
  }
}

TEST(BatchQueryTest, NoFallbackReportsNotFoundConsistently) {
  const auto g = testing::random_connected(700, 2100, 608);
  OracleOptions opt;
  opt.alpha = 0.5;
  opt.seed = 609;
  opt.fallback = Fallback::kNone;
  const auto oracle = build(g, opt);
  const auto queries = random_queries(g, 300, 610);
  QueryEngine engine(make_any_oracle(oracle), 3);
  const auto batch = engine.run_batch(queries);
  QueryContext ctx;
  std::size_t not_found = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto seq = oracle->distance(queries[i].s, queries[i].t, ctx);
    ASSERT_EQ(batch[i].method, seq.method);
    not_found += batch[i].method == QueryMethod::kNotFound;
  }
  EXPECT_GT(not_found, 0u);  // alpha=0.5 must miss sometimes
}

TEST(BatchQueryTest, ThroughputSanity) {
  // Not a timing assertion — just confirms a large batch completes and
  // answers everything exactly via the index + fallback.
  util::Rng grng(611);
  const auto g = gen::powerlaw_cluster(2000, 5, 0.5, grng);
  OracleOptions opt;
  opt.alpha = 8.0;
  opt.seed = 612;
  opt.fallback = Fallback::kBidirectionalBfs;
  QueryEngine engine(make_any_oracle(build(g, opt)), 0);  // hw concurrency
  const auto queries = random_queries(g, 5000, 613);
  const auto batch = engine.run_batch(queries);
  std::size_t finite = 0;
  for (const auto& r : batch) finite += r.dist != kInfDistance;
  EXPECT_EQ(finite, batch.size());  // connected graph
}

}  // namespace
}  // namespace vicinity::core
