// The unified oracle interface (core/any_oracle.h) and the vicinity::Index
// facade: capability probing instead of downcasts, QueryEngine serving a
// directed-graph index and baselines through AnyOracle with bit-identical
// batch results across thread counts, and backend-tagged persistence
// through the facade.
#include "core/any_oracle.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "algo/bfs.h"
#include "baselines/baseline_adapters.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "test_support.h"
#include "vicinity_index.h"

namespace vicinity::core {
namespace {

OracleOptions defaults() {
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 77;
  opt.fallback = Fallback::kBidirectionalBfs;
  return opt;
}

std::vector<Query> random_queries(const graph::Graph& g, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> queries(count);
  for (auto& q : queries) {
    q.s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }
  return queries;
}

void expect_identical(const std::vector<QueryResult>& a,
                      const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dist, b[i].dist) << i;
    ASSERT_EQ(a[i].method, b[i].method) << i;
    ASSERT_EQ(a[i].hash_lookups, b[i].hash_lookups) << i;
    ASSERT_EQ(a[i].exact, b[i].exact) << i;
  }
}

TEST(CapabilitiesTest, BitsetProbesAndPrints) {
  Capabilities c;
  EXPECT_FALSE(c.has(Capability::kExact));
  EXPECT_EQ(c.to_string(), "none");
  c.set(Capability::kExact).set(Capability::kPaths);
  EXPECT_TRUE(c.has(Capability::kExact));
  EXPECT_TRUE(c.has(Capability::kPaths));
  EXPECT_FALSE(c.has(Capability::kDirected));
  EXPECT_EQ(c.to_string(), "exact|paths");
}

TEST(AnyOracleTest, UndirectedAdapterMatchesConcreteOracle) {
  const auto g = testing::random_connected(400, 1600, 501);
  auto concrete = std::make_shared<VicinityOracle>(
      VicinityOracle::build(g, defaults()));
  auto any = make_any_oracle(concrete);
  ASSERT_NE(any, nullptr);
  EXPECT_STREQ(any->backend_name(), "vicinity");
  EXPECT_TRUE(any->capabilities().has(Capability::kExact));
  EXPECT_TRUE(any->capabilities().has(Capability::kPaths));
  EXPECT_TRUE(any->capabilities().has(Capability::kUpdatable));
  EXPECT_TRUE(any->capabilities().has(Capability::kPersistable));
  EXPECT_FALSE(any->capabilities().has(Capability::kDirected));
  EXPECT_EQ(any->as_undirected(), concrete.get());
  EXPECT_EQ(any->as_directed(), nullptr);
  EXPECT_EQ(&any->graph(), &g);
  EXPECT_EQ(any->memory_stats().vicinity_entries,
            concrete->memory_stats().vicinity_entries);

  QueryContext a, b;
  util::Rng rng(502);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto via_any = any->distance(s, t, a);
    const auto via_concrete = concrete->distance(s, t, b);
    ASSERT_EQ(via_any.dist, via_concrete.dist);
    ASSERT_EQ(via_any.method, via_concrete.method);
    EXPECT_EQ(any->path(s, t, a).path, concrete->path(s, t, b).path);
  }
  EXPECT_EQ(a.stats().queries, b.stats().queries);
}

TEST(AnyOracleTest, ConstAdapterRefusesUpdates) {
  graph::Graph g = testing::random_connected(120, 400, 503);
  auto any = make_any_oracle(std::shared_ptr<const VicinityOracle>(
      std::make_shared<VicinityOracle>(VicinityOracle::build(g, defaults()))));
  EXPECT_FALSE(any->capabilities().has(Capability::kUpdatable));
  // A const adapter hands out a const AnyOracle in spirit; apply_update is
  // non-const, so exercise it through a mutable copy of the pointer.
  auto mutable_any = std::const_pointer_cast<AnyOracle>(any);
  try {
    mutable_any->apply_update(g, GraphUpdate::insert(0, 5));
    FAIL() << "apply_update on a const adapter succeeded";
  } catch (const CapabilityError& e) {
    EXPECT_EQ(e.missing(), Capability::kUpdatable);
    EXPECT_NE(std::string(e.what()).find("updatable"), std::string::npos);
  }
}

TEST(AnyOracleTest, SubsetIndexIsNotUpdatable) {
  // apply_update requires a full index; capabilities() must predict the
  // refusal for build_for() oracles even when wrapped mutably, and the
  // refusal must be the typed CapabilityError, not a bare logic_error.
  graph::Graph g = testing::random_connected(300, 1200, 516);
  std::vector<NodeId> sample{1, 5, 9, 42, 77};
  auto any = make_any_oracle(std::make_shared<VicinityOracle>(
      VicinityOracle::build_for(g, defaults(), sample)));
  EXPECT_FALSE(any->capabilities().has(Capability::kUpdatable));
  EXPECT_THROW(any->apply_update(g, GraphUpdate::insert(0, 2)),
               CapabilityError);
  // A full build through the same factory stays updatable.
  auto full = make_any_oracle(std::make_shared<VicinityOracle>(
      VicinityOracle::build(g, defaults())));
  EXPECT_TRUE(full->capabilities().has(Capability::kUpdatable));
}

TEST(AnyOracleTest, NullOracleRejected) {
  EXPECT_THROW(make_any_oracle(std::shared_ptr<VicinityOracle>{}),
               std::invalid_argument);
  EXPECT_THROW(make_any_oracle(std::shared_ptr<const VicinityOracle>{}),
               std::invalid_argument);
}

// --- Acceptance: QueryEngine serves a VicinityOracle on a directed graph
// through AnyOracle with bit-identical batch results across thread counts.

TEST(AnyOracleTest, EngineServesDirectedOracleBitIdentical) {
  const auto g = testing::random_connected_directed(600, 4800, 504);
  auto concrete = std::make_shared<VicinityOracle>(
      VicinityOracle::build(g, defaults()));
  QueryEngine engine(make_any_oracle(concrete), 8);
  EXPECT_TRUE(engine.capabilities().has(Capability::kDirected));
  EXPECT_STREQ(engine.oracle().backend_name(), "vicinity-directed");

  const auto queries = random_queries(g, 3000, 505);
  const auto one = engine.run_batch(queries, 1);
  const auto four = engine.run_batch(queries, 4);
  const auto eight = engine.run_batch(queries, 8);
  expect_identical(one, four);
  expect_identical(one, eight);

  // Against the concrete oracle and forward BFS ground truth.
  QueryContext ctx;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto direct = concrete->distance(queries[i].s, queries[i].t, ctx);
    ASSERT_EQ(one[i].dist, direct.dist) << i;
    ASSERT_EQ(one[i].method, direct.method) << i;
  }
  for (std::size_t i = 0; i < 40; ++i) {
    ASSERT_EQ(one[i].dist, algo::bfs(g, queries[i].s).dist[queries[i].t]) << i;
  }
}

TEST(AnyOracleTest, EngineAppliesDirectedUpdatesThroughInterface) {
  auto g = testing::random_connected_directed(300, 2400, 506);
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, defaults())), 4);
  // Find an absent arc and insert it through the engine.
  NodeId u = 0, v = 0;
  util::Rng rng(507);
  do {
    u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  } while (u == v || g.has_edge(u, v));
  const auto stats = engine.apply_update(g, GraphUpdate::insert(u, v));
  EXPECT_EQ(stats.kind, UpdateKind::kInsert);
  EXPECT_EQ(engine.epoch(), 1u);
  QueryContext ctx;
  EXPECT_EQ(engine.oracle().distance(u, v, ctx).dist, 1u);
}

// --- Acceptance: at least one baseline serves through the same engine. ---

TEST(AnyOracleTest, EngineServesTzBaselineBitIdentical) {
  const auto g = testing::random_connected(500, 2500, 508);
  util::Rng brng(509);
  auto any = baselines::make_any_oracle(baselines::TzOracle(g, brng), g);
  QueryEngine engine(any, 8);
  EXPECT_STREQ(engine.oracle().backend_name(), "tz");
  EXPECT_FALSE(engine.capabilities().has(Capability::kPaths));

  const auto queries = random_queries(g, 2500, 510);
  const auto one = engine.run_batch(queries, 1);
  const auto eight = engine.run_batch(queries, 8);
  expect_identical(one, eight);

  // Stretch-3 guarantee holds through the type-erased path, and exactness
  // is classified per result.
  for (std::size_t i = 0; i < 150; ++i) {
    const Distance ref =
        algo::bfs(g, queries[i].s).dist[queries[i].t];
    ASSERT_GE(one[i].dist, ref);
    ASSERT_LE(one[i].dist, 3 * ref + 2);
    if (queries[i].s == queries[i].t) {
      EXPECT_EQ(one[i].method, QueryMethod::kIdenticalNodes);
    } else {
      EXPECT_TRUE(one[i].method == QueryMethod::kBaselineExact ||
                  one[i].method == QueryMethod::kBaselineEstimate);
      EXPECT_EQ(one[i].exact, one[i].method == QueryMethod::kBaselineExact);
    }
  }

  // QueryStats work identically: every query accounted, histogram in the
  // baseline buckets.
  const QueryStats stats = engine.stats();
  EXPECT_EQ(stats.queries, 2 * queries.size());
  EXPECT_EQ(stats.queries,
            stats.method_count(QueryMethod::kIdenticalNodes) +
                stats.method_count(QueryMethod::kBaselineExact) +
                stats.method_count(QueryMethod::kBaselineEstimate) +
                stats.method_count(QueryMethod::kNotFound));
}

TEST(AnyOracleTest, BaselineRefusalsAreCapabilityErrors) {
  graph::Graph g = testing::random_connected(200, 800, 511);
  auto any = baselines::make_any_oracle(baselines::LandmarkEstimator(g, 8), g);
  EXPECT_EQ(any->capabilities().to_string(), "none");
  QueryContext ctx;
  EXPECT_THROW(any->path(0, 1, ctx), CapabilityError);
  EXPECT_THROW(any->apply_update(g, GraphUpdate::insert(0, 1)),
               CapabilityError);
  std::ostringstream out;
  EXPECT_THROW(any->save(out), CapabilityError);
  // CapabilityError is a logic_error, so capability-unaware callers still
  // get a sane exception hierarchy.
  EXPECT_THROW(any->path(0, 1, ctx), std::logic_error);
  // Out-of-range nodes are rejected uniformly.
  EXPECT_THROW(any->distance(g.num_nodes(), 0, ctx), std::out_of_range);

  QueryEngine engine(any, 2);
  const auto queries = random_queries(g, 500, 512);
  expect_identical(engine.run_batch(queries, 1), engine.run_batch(queries, 2));
  EXPECT_THROW(engine.oracle().path(0, 1, ctx), CapabilityError);
}

TEST(AnyOracleTest, SketchBaselineServes) {
  const auto g = testing::random_connected(300, 1500, 513);
  util::Rng rng(514);
  auto any = baselines::make_any_oracle(baselines::SketchOracle(g, rng), g);
  QueryEngine engine(any, 4);
  const auto queries = random_queries(g, 1000, 515);
  const auto results = engine.run_batch(queries);
  expect_identical(results, engine.run_batch(queries, 1));
  for (std::size_t i = 0; i < 100; ++i) {
    if (queries[i].s == queries[i].t) continue;
    const Distance ref = algo::bfs(g, queries[i].s).dist[queries[i].t];
    if (results[i].dist != kInfDistance) {
      ASSERT_GE(results[i].dist, ref);  // never an underestimate
    }
  }
}

}  // namespace
}  // namespace vicinity::core

namespace vicinity {
namespace {

using core::Capability;

core::OracleOptions facade_opts() {
  core::OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 99;
  opt.fallback = core::Fallback::kBidirectionalBfs;
  return opt;
}

TEST(IndexFacadeTest, BuildsUndirectedAndAnswersExactly) {
  const auto g = testing::random_connected(400, 1600, 601);
  const auto index = Index::build(g, facade_opts());
  EXPECT_STREQ(index.backend_name(), "vicinity");
  EXPECT_TRUE(index.can(Capability::kExact));
  EXPECT_FALSE(index.can(Capability::kDirected));
  ASSERT_NE(index.undirected(), nullptr);
  EXPECT_EQ(index.directed(), nullptr);
  util::Rng rng(602);
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(index.distance(s, t).dist, testing::ref_distance(g, s, t));
  }
  const auto p = index.path(0, g.num_nodes() - 1);
  EXPECT_EQ(p.dist, testing::ref_distance(g, 0, g.num_nodes() - 1));
}

TEST(IndexFacadeTest, BuildsDirectedAutomaticallyAndRoundTrips) {
  util::Rng grng(603);
  auto raw = gen::erdos_renyi_directed(500, 4000, grng);
  const auto g = graph::largest_component(raw).graph;
  const auto index = Index::build(g, facade_opts());
  EXPECT_STREQ(index.backend_name(), "vicinity-directed");
  EXPECT_TRUE(index.can(Capability::kDirected));
  ASSERT_NE(index.directed(), nullptr);

  // save -> open through the backend-tagged container; the reopened index
  // dispatches to the directed backend and answers identically.
  std::stringstream buf;
  index.save(buf);
  const auto reopened = Index::open(buf, g);
  EXPECT_STREQ(reopened.backend_name(), "vicinity-directed");
  util::Rng rng(604);
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto a = index.distance(s, t);
    const auto b = reopened.distance(s, t);
    ASSERT_EQ(a.dist, b.dist);
    ASSERT_EQ(a.method, b.method);
    ASSERT_EQ(algo::bfs(g, s).dist[t], a.dist);
  }
}

TEST(IndexFacadeTest, EngineSharesTheOracle) {
  auto g = testing::random_connected(300, 1200, 605);
  const auto index = Index::build(g, facade_opts());
  auto engine = index.engine(4);
  util::Rng rng(606);
  std::vector<core::Query> queries(800);
  for (auto& q : queries) {
    q.s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }
  const auto results = engine.run_batch(queries);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(results[i].dist, index.distance(queries[i].s, queries[i].t).dist);
  }
  // Updates through the engine are visible through the facade (same index).
  NodeId u = 0, v = 0;
  do {
    u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  } while (u == v || g.has_edge(u, v));
  engine.apply_update(g, core::GraphUpdate::insert(u, v));
  EXPECT_EQ(index.distance(u, v).dist, 1u);
}

TEST(IndexFacadeTest, AdoptsBaselinesWithCapabilityChecks) {
  const auto g = testing::random_connected(250, 1000, 607);
  util::Rng rng(608);
  const auto index =
      Index::adopt(baselines::make_any_oracle(baselines::TzOracle(g, rng), g));
  EXPECT_STREQ(index.backend_name(), "tz");
  EXPECT_FALSE(index.can(Capability::kPaths));
  EXPECT_FALSE(index.can(Capability::kPersistable));
  const auto r = index.distance(1, 7);
  EXPECT_GE(r.dist, testing::ref_distance(g, 1, 7));
  EXPECT_THROW(index.path(1, 7), core::CapabilityError);
  std::ostringstream out;
  EXPECT_THROW(index.save(out), core::CapabilityError);
  EXPECT_THROW(Index::adopt(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace vicinity
