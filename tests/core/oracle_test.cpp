// VicinityOracle end-to-end behaviour on small graphs: exactness of every
// resolution method, fallbacks, landmark tables, path retrieval, stats.
#include "core/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "algo/bfs.h"
#include "algo/path.h"
#include "core/query_engine.h"
#include "graph/transform.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

OracleOptions defaults() {
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 7;
  return opt;
}

TEST(OracleTest, RejectsEmptyGraphs) {
  const auto undirected = graph::GraphBuilder(0, /*directed=*/false).build();
  const auto directed = graph::GraphBuilder(0, /*directed=*/true).build();
  ASSERT_EQ(undirected.num_nodes(), 0u);
  ASSERT_EQ(directed.num_nodes(), 0u);
  EXPECT_THROW(VicinityOracle::build(undirected, defaults()),
               std::invalid_argument);
  EXPECT_THROW(VicinityOracle::build(directed, defaults()),
               std::invalid_argument);
}

TEST(OracleTest, IdenticalNodesAreZero) {
  const auto g = testing::karate_club();
  auto oracle = VicinityOracle::build(g, defaults());
  QueryContext ctx;
  const auto r = oracle.distance(5, 5, ctx);
  EXPECT_EQ(r.dist, 0u);
  EXPECT_EQ(r.method, QueryMethod::kIdenticalNodes);
  EXPECT_TRUE(r.exact);
}

TEST(OracleTest, AnsweredQueriesAreExact) {
  const auto g = testing::random_connected(800, 3200, 152);
  auto oracle = VicinityOracle::build(g, defaults());
  std::size_t answered = 0, total = 0;
  QueryContext ctx;
  for (NodeId s = 0; s < g.num_nodes(); s += 37) {
    const auto ref = algo::bfs(g, s).dist;
    for (NodeId t = 0; t < g.num_nodes(); t += 11) {
      ++total;
      const auto r = oracle.distance(s, t, ctx);
      if (r.method == QueryMethod::kNotFound) continue;
      ++answered;
      ASSERT_TRUE(r.exact);
      ASSERT_EQ(r.dist, ref[t]) << s << "->" << t << " via "
                                << to_string(r.method);
    }
  }
  // The 99.9% claim is for social graphs at alpha=4; even plain ER should
  // answer the bulk of queries.
  EXPECT_GT(answered, total * 8 / 10);
}

TEST(OracleTest, LandmarkEndpointsUseTables) {
  const auto g = testing::random_connected(400, 1600, 153);
  auto oracle = VicinityOracle::build(g, defaults());
  ASSERT_GT(oracle.landmarks().size(), 0u);
  const NodeId l = oracle.landmarks().nodes.front();
  NodeId other = 0;
  while (oracle.landmarks().contains(other)) ++other;
  QueryContext ctx;
  const auto r1 = oracle.distance(l, other, ctx);
  EXPECT_EQ(r1.method, QueryMethod::kSourceIsLandmark);
  EXPECT_EQ(r1.dist, testing::ref_distance(g, l, other));
  const auto r2 = oracle.distance(other, l, ctx);
  EXPECT_EQ(r2.method, QueryMethod::kTargetIsLandmark);
  EXPECT_EQ(r2.dist, testing::ref_distance(g, other, l));
  EXPECT_EQ(r1.hash_lookups, 0u);  // array reads, not hash probes
}

TEST(OracleTest, WithoutTablesLandmarkQueriesFallThrough) {
  const auto g = testing::random_connected(400, 1600, 154);
  auto opt = defaults();
  opt.store_landmark_tables = false;
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  const NodeId l = oracle.landmarks().nodes.front();
  NodeId other = 0;
  while (oracle.landmarks().contains(other)) ++other;
  QueryContext ctx;
  const auto r = oracle.distance(l, other, ctx);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.dist, testing::ref_distance(g, l, other));
}

TEST(OracleTest, FallbackBidirectionalAnswersEverything) {
  // Tiny alpha starves the vicinities so the fallback actually fires.
  const auto g = testing::random_connected(500, 1500, 155);
  auto opt = defaults();
  opt.alpha = 0.25;
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(156);
  std::size_t fallbacks = 0;
  QueryContext ctx;
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    ASSERT_TRUE(r.exact);
    ASSERT_EQ(r.dist, testing::ref_distance(g, s, t));
    fallbacks += r.method == QueryMethod::kFallbackExact;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(OracleTest, LandmarkEstimateIsUpperBound) {
  const auto g = testing::random_connected(500, 1500, 157);
  auto opt = defaults();
  opt.alpha = 0.25;
  opt.fallback = Fallback::kLandmarkEstimate;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(158);
  std::size_t estimates = 0;
  QueryContext ctx;
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method != QueryMethod::kFallbackEstimate) continue;
    ++estimates;
    EXPECT_FALSE(r.exact);
    EXPECT_GE(r.dist, testing::ref_distance(g, s, t));
  }
  EXPECT_GT(estimates, 0u);
}

TEST(OracleTest, PathsAreValidShortestPaths) {
  const auto g = testing::random_connected(600, 2400, 159);
  auto opt = defaults();
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(160);
  QueryContext ctx;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto p = oracle.path(s, t, ctx);
    const auto ref = testing::ref_distance(g, s, t);
    ASSERT_TRUE(p.exact);
    if (s == t) {
      EXPECT_EQ(p.path, std::vector<NodeId>{s});
      continue;
    }
    ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t))
        << s << "->" << t << " via " << to_string(p.method);
    EXPECT_EQ(static_cast<Distance>(p.path.size() - 1), ref);
    EXPECT_EQ(p.dist, ref);
  }
}

TEST(OracleTest, QueryMethodToStringCoversEveryEnumerator) {
  // Locked to kNumQueryMethods: appending a QueryMethod without teaching
  // to_string() about it (or without keeping kCrossingEdge last, which
  // sizes the QueryStats histogram) fails here instead of desyncing the
  // stats.
  static_assert(kNumQueryMethods ==
                static_cast<std::size_t>(QueryMethod::kCrossingEdge) + 1);
  std::set<std::string> names;
  for (std::size_t i = 0; i < kNumQueryMethods; ++i) {
    const char* name = to_string(static_cast<QueryMethod>(i));
    ASSERT_NE(name, nullptr) << "enumerator " << i;
    EXPECT_STRNE(name, "") << "enumerator " << i;
    EXPECT_STRNE(name, "?") << "enumerator " << i << " hit the fallthrough";
    names.insert(name);
  }
  // Pairwise distinct: the serving-time histogram labels stay unambiguous.
  EXPECT_EQ(names.size(), kNumQueryMethods);
  EXPECT_STREQ(to_string(QueryMethod::kNotFound), "not-found");
}

TEST(OracleTest, PathCoversEveryMethod) {
  const auto g = testing::random_connected(600, 2400, 161);
  auto opt = defaults();
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(162);
  std::set<QueryMethod> seen;
  QueryContext ctx;
  for (int i = 0; i < 3000 && seen.size() < 5; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    seen.insert(oracle.path(s, t, ctx).method);
  }
  EXPECT_TRUE(seen.count(QueryMethod::kSourceIsLandmark) ||
              seen.count(QueryMethod::kTargetIsLandmark));
  EXPECT_TRUE(seen.count(QueryMethod::kVicinityIntersection) ||
              seen.count(QueryMethod::kTargetInSourceVicinity) ||
              seen.count(QueryMethod::kSourceInTargetVicinity));
}

TEST(OracleTest, WeightedGraphExactness) {
  auto base = testing::random_connected(400, 1600, 163);
  util::Rng wrng(164);
  const auto g = graph::with_random_weights(base, wrng, 1, 6);
  auto opt = defaults();
  // The exact fallback runs bidirectional Dijkstra on weighted graphs, so
  // every answer, the searched ones included, must equal Dijkstra.
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(165);
  std::size_t searched = 0;
  QueryContext ctx;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    ASSERT_TRUE(r.exact) << s << "->" << t << " via " << to_string(r.method);
    ASSERT_EQ(r.dist, testing::ref_distance(g, s, t))
        << s << "->" << t << " via " << to_string(r.method);
    searched += r.method == QueryMethod::kFallbackExact;
  }
  EXPECT_GT(searched, 0u);
  // The index itself must answer most pairs; the search only fills gaps.
  EXPECT_GT(150 - searched, 100u);
}

TEST(OracleTest, BuildForSubsetAnswersSubsetPairs) {
  const auto g = testing::random_connected(2000, 8000, 166);
  util::Rng rng(167);
  std::vector<NodeId> sample;
  for (int i = 0; i < 50; ++i) {
    sample.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  auto oracle = VicinityOracle::build_for(g, defaults(), sample);
  EXPECT_LE(oracle.indexed_nodes().size(), sample.size());
  std::size_t answered = 0, total = 0;
  QueryContext ctx;
  for (const NodeId s : sample) {
    const auto ref = algo::bfs(g, s).dist;
    for (const NodeId t : sample) {
      if (s == t) continue;
      ++total;
      const auto r = oracle.distance(s, t, ctx);
      if (r.method == QueryMethod::kNotFound) continue;
      ++answered;
      ASSERT_EQ(r.dist, ref[t]);
    }
  }
  EXPECT_GT(answered, total / 2);
}

TEST(OracleTest, MemoryStatsPlausible) {
  const auto g = testing::random_connected(1000, 4000, 168);
  auto oracle = VicinityOracle::build(g, defaults());
  const auto m = oracle.memory_stats();
  EXPECT_GT(m.vicinity_entries, 0u);
  EXPECT_GE(m.vicinity_entries, m.boundary_entries);
  EXPECT_GT(m.bytes, 0u);
  EXPECT_EQ(m.apsp_entries,
            std::uint64_t{g.num_nodes()} * (g.num_nodes() - 1) / 2);
  // Vicinity entries per node ~ alpha*sqrt(n) within a loose band.
  const double per_node =
      static_cast<double>(m.vicinity_entries) / g.num_nodes();
  EXPECT_LT(per_node, 40 * std::sqrt(g.num_nodes()));
}

TEST(OracleTest, BuildStatsPopulated) {
  const auto g = testing::random_connected(500, 2000, 169);
  auto oracle = VicinityOracle::build(g, defaults());
  const auto& s = oracle.build_stats();
  EXPECT_EQ(s.indexed_nodes, g.num_nodes());
  EXPECT_GT(s.num_landmarks, 0u);
  EXPECT_GT(s.mean_vicinity_size, 0.0);
  EXPECT_GE(s.max_vicinity_size, s.mean_vicinity_size);
  EXPECT_GT(s.mean_radius, 0.0);
  EXPECT_GT(s.construction_arcs_scanned, 0u);
}

TEST(OracleTest, CoverageHighAtCoverageMatchedAlpha) {
  // At laptop scale the vicinity radius quantizes to whole BFS levels, so
  // the alpha reaching the paper's ~99% coverage is larger than the
  // paper's 4 (see EXPERIMENTS.md calibration); alpha = 16 suffices here.
  util::Rng grng(170);
  const auto g = gen::powerlaw_cluster(3000, 6, 0.5, grng);
  auto opt = defaults();
  opt.alpha = 16.0;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(171);
  EXPECT_GT(oracle.estimate_coverage(500, rng), 0.9);
}

TEST(OracleTest, ParallelBuildMatchesSerial) {
  const auto g = testing::random_connected(800, 3200, 172);
  auto serial_opt = defaults();
  serial_opt.build_threads = 1;
  auto parallel_opt = defaults();
  parallel_opt.build_threads = 4;
  auto a = VicinityOracle::build(g, serial_opt);
  auto b = VicinityOracle::build(g, parallel_opt);
  EXPECT_EQ(a.landmarks().nodes, b.landmarks().nodes);
  EXPECT_EQ(a.memory_stats().vicinity_entries,
            b.memory_stats().vicinity_entries);
  util::Rng rng(173);
  QueryContext ctx;
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto ra = a.distance(s, t, ctx);
    const auto rb = b.distance(s, t, ctx);
    EXPECT_EQ(ra.dist, rb.dist);
    EXPECT_EQ(ra.method, rb.method);
  }
}

TEST(OracleTest, OutOfRangeQueryThrows) {
  const auto g = testing::karate_club();
  auto oracle = VicinityOracle::build(g, defaults());
  QueryContext ctx;
  EXPECT_THROW(oracle.distance(0, 999, ctx), std::out_of_range);
  EXPECT_THROW(oracle.path(999, 0, ctx), std::out_of_range);
}

}  // namespace
}  // namespace vicinity::core
