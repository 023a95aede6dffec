// Bidirectional BFS / Dijkstra: exactness against unidirectional references
// across graph families (parameterized property sweep).
#include <gtest/gtest.h>

#include <ostream>

#include "algo/bfs.h"
#include "algo/bidirectional_bfs.h"
#include "algo/bidirectional_dijkstra.h"
#include "algo/dijkstra.h"
#include "algo/path.h"
#include "graph/transform.h"
#include "test_support.h"

namespace vicinity::algo {
namespace {

TEST(BidirBfsTest, TinyCases) {
  const auto g = testing::path_graph(5);
  BidirectionalBfsRunner runner(g);
  EXPECT_EQ(runner.distance(0, 0).dist, 0u);
  EXPECT_EQ(runner.distance(0, 1).dist, 1u);
  EXPECT_EQ(runner.distance(0, 4).dist, 4u);
  EXPECT_EQ(runner.distance(4, 0).dist, 4u);
}

TEST(BidirBfsTest, UnreachableReturnsInfinity) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = b.build();
  BidirectionalBfsRunner runner(g);
  EXPECT_EQ(runner.distance(0, 2).dist, kInfDistance);
  EXPECT_TRUE(runner.path(0, 2).empty());
}

TEST(BidirBfsTest, MeetingNodeLiesOnShortestPath) {
  const auto g = testing::karate_club();
  BidirectionalBfsRunner runner(g);
  const auto full = bfs(g, 0);
  for (NodeId t = 1; t < g.num_nodes(); ++t) {
    const auto r = runner.distance(0, t);
    ASSERT_EQ(r.dist, full.dist[t]);
    ASSERT_NE(r.meeting_node, kInvalidNode);
    // d(0,m) + d(m,t) == d(0,t) certifies m is on a shortest path.
    const auto back = bfs(g, t);
    EXPECT_EQ(full.dist[r.meeting_node] + back.dist[r.meeting_node], r.dist);
  }
}

TEST(BidirBfsTest, ScansFewerArcsThanFullBfsOnBigGraphs) {
  const auto g = testing::random_connected(20000, 80000, 41);
  BidirectionalBfsRunner runner(g);
  util::Rng rng(42);
  std::uint64_t bidi = 0, uni = 0;
  for (int i = 0; i < 10; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    bidi += runner.distance(s, t).arcs_scanned;
    uni += bfs(g, s).arcs_scanned;
  }
  EXPECT_LT(bidi, uni / 2);
}

TEST(BidirBfsTest, PathValidAndShortest) {
  const auto g = testing::random_connected(1000, 4000, 43);
  BidirectionalBfsRunner runner(g);
  util::Rng rng(44);
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto p = runner.path(s, t);
    const auto d = testing::ref_distance(g, s, t);
    ASSERT_TRUE(is_valid_path(g, p, s, t));
    EXPECT_EQ(static_cast<Distance>(p.size() - 1), d);
  }
}

TEST(BidirBfsTest, DirectedDistancesMatchForwardBfs) {
  util::Rng rng(45);
  auto g = gen::erdos_renyi_directed(400, 2400, rng);
  BidirectionalBfsRunner runner(g);
  for (NodeId s = 0; s < 20; ++s) {
    const auto full = bfs(g, s);
    for (NodeId t = 0; t < g.num_nodes(); t += 17) {
      EXPECT_EQ(runner.distance(s, t).dist, full.dist[t]) << s << "->" << t;
    }
  }
}

struct SweepParam {
  const char* name;
  int kind;  // 0 ER, 1 BA, 2 WS, 3 powerlaw-cluster
  std::uint64_t seed;
};

// Stable ctest names: print the case name, not the struct's raw bytes.
void PrintTo(const SweepParam& p, std::ostream* os) { *os << p.name; }

class BidirSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  graph::Graph make() const {
    util::Rng rng(GetParam().seed);
    switch (GetParam().kind) {
      case 0: {
        auto g = gen::erdos_renyi(800, 2400, rng);
        return graph::largest_component(g).graph;
      }
      case 1:
        return gen::barabasi_albert(800, 3, rng);
      case 2:
        return gen::watts_strogatz(800, 3, 0.1, rng);
      default:
        return gen::powerlaw_cluster(800, 3, 0.5, rng);
    }
  }
};

TEST_P(BidirSweep, MatchesBfsOnRandomPairs) {
  const auto g = make();
  BidirectionalBfsRunner runner(g);
  util::Rng rng(GetParam().seed + 1000);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(runner.distance(s, t).dist, testing::ref_distance(g, s, t))
        << GetParam().name << " " << s << "->" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphFamilies, BidirSweep,
    ::testing::Values(SweepParam{"er", 0, 1}, SweepParam{"er2", 0, 2},
                      SweepParam{"ba", 1, 3}, SweepParam{"ba2", 1, 4},
                      SweepParam{"ws", 2, 5}, SweepParam{"plc", 3, 6},
                      SweepParam{"plc2", 3, 7}),
    [](const auto& info) { return info.param.name; });

TEST(BidirDijkstraTest, MatchesDijkstraOnWeightedGraphs) {
  auto base = testing::random_connected(600, 2400, 51);
  util::Rng wrng(52);
  const auto g = graph::with_random_weights(base, wrng, 1, 10);
  BidirectionalDijkstraRunner runner(g);
  util::Rng rng(53);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(runner.distance(s, t).dist, dijkstra(g, s).dist[t]);
  }
}

TEST(BidirDijkstraTest, PathIsValidAndShortestOnWeightedGraphs) {
  util::Rng grng(54);
  for (const bool directed : {false, true}) {
    const auto base =
        directed ? gen::erdos_renyi_directed(500, 3000, grng)
                 : testing::random_connected(500, 2000, 55);
    util::Rng wrng(56);
    const auto g = graph::with_random_weights(base, wrng, 1, 10);
    BidirBfsScratch scratch;
    util::Rng rng(57);
    for (int i = 0; i < 50; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto d = dijkstra(g, s).dist[t];
      const auto p = bidirectional_dijkstra_path(g, scratch, s, t);
      if (d == kInfDistance) {
        EXPECT_TRUE(p.empty()) << s << "->" << t;
        continue;
      }
      ASSERT_TRUE(is_valid_path(g, p, s, t)) << s << "->" << t;
      EXPECT_EQ(path_length(g, p), d) << s << "->" << t;
    }
  }
}

TEST(BidirDijkstraTest, PathEmptyWhenUnreachable) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 3);
  b.add_edge(2, 3, 5);
  const auto g = b.build(/*weighted=*/true);
  BidirBfsScratch scratch;
  EXPECT_TRUE(bidirectional_dijkstra_path(g, scratch, 0, 2).empty());
  EXPECT_EQ(bidirectional_dijkstra_path(g, scratch, 0, 1),
            (std::vector<NodeId>{0, 1}));
}

TEST(BidirDijkstraTest, UnweightedEqualsBfs) {
  const auto g = testing::karate_club();
  BidirectionalDijkstraRunner runner(g);
  const auto full = bfs(g, 7);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    EXPECT_EQ(runner.distance(7, t).dist, full.dist[t]);
  }
}

}  // namespace
}  // namespace vicinity::algo
