// VicinityOracle on directed graphs (§5 challenge): exactness against
// forward BFS, directed path validity, subset mode, coverage, memory
// accounting and parallel build/repair determinism.
#include "core/oracle.h"

#include <gtest/gtest.h>

#include <sstream>

#include "algo/bfs.h"
#include "algo/path.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "graph/components.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

graph::Graph directed_graph(NodeId n, std::uint64_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = gen::erdos_renyi_directed(n, m, rng);
  return graph::largest_component(g).graph;
}

OracleOptions defaults() {
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 31;
  return opt;
}

TEST(DirectedOracleTest, AnsweredDistancesMatchForwardBfs) {
  const auto g = directed_graph(800, 6400, 301);
  auto oracle = VicinityOracle::build(g, defaults());
  std::size_t answered = 0, total = 0;
  QueryContext ctx;
  for (NodeId s = 0; s < g.num_nodes(); s += 41) {
    const auto ref = algo::bfs(g, s).dist;
    for (NodeId t = 0; t < g.num_nodes(); t += 13) {
      ++total;
      const auto r = oracle.distance(s, t, ctx);
      if (r.method == QueryMethod::kNotFound) continue;
      ++answered;
      ASSERT_EQ(r.dist, ref[t])
          << s << "->" << t << " via " << to_string(r.method);
    }
  }
  EXPECT_GT(answered, total / 2);
}

TEST(DirectedOracleTest, AsymmetricDistancesHandled) {
  // 0 -> 1 -> 2 -> 0 ring plus chord 0 -> 2.
  graph::GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(0, 2);
  const auto g = b.build();
  auto opt = defaults();
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  QueryContext ctx;
  EXPECT_EQ(oracle.distance(0, 2, ctx).dist, 1u);
  EXPECT_EQ(oracle.distance(2, 1, ctx).dist, 2u);  // must go around
  EXPECT_EQ(oracle.distance(1, 0, ctx).dist, 2u);
}

TEST(DirectedOracleTest, FallbackMakesItTotal) {
  const auto g = directed_graph(600, 3600, 302);
  auto opt = defaults();
  opt.alpha = 0.5;
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(303);
  QueryContext ctx;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    ASSERT_TRUE(r.exact);
    ASSERT_EQ(r.dist, algo::bfs(g, s).dist[t]);
  }
}

TEST(DirectedOracleTest, PathsFollowArcDirections) {
  const auto g = directed_graph(600, 4800, 304);
  auto opt = defaults();
  opt.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(305);
  QueryContext ctx;
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto ref = algo::bfs(g, s).dist[t];
    const auto p = oracle.path(s, t, ctx);
    if (ref == kInfDistance) {
      EXPECT_TRUE(p.path.empty());
      continue;
    }
    ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t))
        << s << "->" << t << " via " << to_string(p.method);
    EXPECT_EQ(static_cast<Distance>(p.path.size() - 1), ref);
  }
}

TEST(DirectedOracleTest, SubsetModeWorks) {
  const auto g = directed_graph(1500, 12000, 306);
  util::Rng rng(307);
  std::vector<NodeId> sample;
  for (int i = 0; i < 40; ++i) {
    sample.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  auto oracle = VicinityOracle::build_for(g, defaults(), sample);
  std::size_t answered = 0;
  QueryContext ctx;
  for (const NodeId s : sample) {
    const auto ref = algo::bfs(g, s).dist;
    for (const NodeId t : sample) {
      if (s == t) continue;
      const auto r = oracle.distance(s, t, ctx);
      if (r.method == QueryMethod::kNotFound) continue;
      ++answered;
      ASSERT_EQ(r.dist, ref[t]);
    }
  }
  EXPECT_GT(answered, 0u);
}

TEST(DirectedOracleTest, CoverageReasonable) {
  const auto g = directed_graph(1000, 10000, 308);
  auto oracle = VicinityOracle::build(g, defaults());
  util::Rng rng(309);
  EXPECT_GT(oracle.estimate_coverage(300, rng), 0.5);
}

TEST(DirectedOracleTest, MemoryCountsBothStores) {
  const auto g = directed_graph(500, 3000, 310);
  auto oracle = VicinityOracle::build(g, defaults());
  ASSERT_TRUE(oracle.directed());
  ASSERT_NE(&oracle.store(Direction::kIn), &oracle.store(Direction::kOut));
  const auto m = oracle.memory_stats();
  EXPECT_EQ(m.vicinity_entries,
            oracle.store(Direction::kOut).total_entries() +
                oracle.store(Direction::kIn).total_entries());
  EXPECT_GT(m.vicinity_entries, 0u);
  // Both stores, the tables, both nearest-landmark fields and the landmark
  // bitmap.
  const std::uint64_t n = g.num_nodes();
  EXPECT_EQ(m.bytes, oracle.store(Direction::kOut).memory_bytes() +
                         oracle.store(Direction::kIn).memory_bytes() +
                         oracle.tables().memory_bytes() +
                         2 * n * (sizeof(Distance) + sizeof(NodeId)) +
                         oracle.landmarks().member.memory_bytes());
}

std::string saved_bytes(const VicinityOracle& oracle) {
  std::ostringstream out(std::ios::binary);
  save_oracle(oracle, out);
  return out.str();
}

TEST(DirectedOracleTest, ParallelBuildAndRepairMatchSequential) {
  // Two copies of one graph: apply_update mutates the graph it repairs.
  auto g1 = directed_graph(700, 5600, 311);
  auto g2 = directed_graph(700, 5600, 311);
  ASSERT_GT(g1.num_nodes(), 128u);  // full rebuilds take the pool path
  auto opt = defaults();
  opt.fallback = Fallback::kBidirectionalBfs;
  // Every affected set exceeds a zero budget, so each update rebuilds all
  // vicinities of both families.
  opt.update_rebuild_fraction = 0.0;
  opt.build_threads = 1;
  auto sequential = VicinityOracle::build(g1, opt);
  opt.build_threads = 4;
  auto parallel = VicinityOracle::build(g2, opt);
  ASSERT_TRUE(saved_bytes(sequential) == saved_bytes(parallel))
      << "build_threads 1 and 4 serialize differently";

  util::Rng rng(312);
  for (int i = 0; i < 20; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    while (u == v) {
      u = static_cast<NodeId>(rng.next_below(g1.num_nodes()));
      v = static_cast<NodeId>(rng.next_below(g1.num_nodes()));
    }
    const auto update = g1.has_edge(u, v) ? GraphUpdate::remove(u, v)
                                          : GraphUpdate::insert(u, v);
    const auto a = sequential.apply_update(g1, update);
    const auto b = parallel.apply_update(g2, update);
    ASSERT_TRUE(a.full_rebuild);
    ASSERT_TRUE(b.full_rebuild);
    EXPECT_EQ(a.affected_vicinities, 2 * g1.num_nodes());
  }

  QueryContext ca;
  QueryContext cb;
  for (int q = 0; q < 300; ++q) {
    const auto s = static_cast<NodeId>(rng.next_below(g1.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g1.num_nodes()));
    const auto ra = sequential.distance(s, t, ca);
    const auto rb = parallel.distance(s, t, cb);
    ASSERT_EQ(ra.dist, rb.dist) << s << "->" << t;
    ASSERT_EQ(ra.method, rb.method) << s << "->" << t;
    ASSERT_EQ(ra.hash_lookups, rb.hash_lookups) << s << "->" << t;
    ASSERT_EQ(ra.dist, algo::bfs(g1, s).dist[t]) << s << "->" << t;
    ASSERT_EQ(sequential.path(s, t, ca).path, parallel.path(s, t, cb).path)
        << s << "->" << t;
  }
}

}  // namespace
}  // namespace vicinity::core
