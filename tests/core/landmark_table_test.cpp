// Landmark tables: full-row and subset modes must agree with BFS ground
// truth and with each other on the queries both can answer.
#include "core/landmark_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/bfs.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

LandmarkSet make_landmarks(const graph::Graph& g, double alpha,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  return sample_landmarks(g, alpha, SamplingStrategy::kDegreeProportional,
                          rng);
}

TEST(LandmarkTableTest, FullModeMatchesBfs) {
  const auto g = testing::random_connected(400, 1600, 901);
  const auto lms = make_landmarks(g, 2.0, 902);
  const auto tables = LandmarkTables::build_full(g, lms);
  ASSERT_EQ(tables.mode(), LandmarkTables::Mode::kFull);
  for (const NodeId l : lms.nodes) {
    const auto truth = algo::bfs(g, l).dist;
    for (NodeId v = 0; v < g.num_nodes(); v += 17) {
      EXPECT_EQ(tables.dist_from_landmark(l, v), truth[v]);
      EXPECT_EQ(tables.dist_to_landmark(v, l), truth[v]);  // undirected
    }
  }
}

/// Walks `dir`'s tree of l from every 7th node and checks each step
/// against `truth`, the BFS distances of that tree (d(l -> v) for kOut,
/// d(v -> l) for kIn): every arc exists and every step moves one hop
/// closer to l.
void expect_tree_walks(const graph::Graph& g, const LandmarkTables& tables,
                       Direction dir, NodeId l,
                       const std::vector<Distance>& truth) {
  std::size_t walked = 0;
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    std::vector<NodeId> walk;
    const bool ok = tables.walk_tree(g, dir, l, v, walk);
    if (truth[v] == kInfDistance) {
      EXPECT_FALSE(ok) << v;
      continue;
    }
    ASSERT_TRUE(ok) << v;
    ASSERT_EQ(walk.size(), truth[v] + 1) << v;
    EXPECT_EQ(walk.front(), v);
    EXPECT_EQ(walk.back(), l);
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      // kOut steps to a predecessor on l -> v, kIn to a successor on v -> l.
      const NodeId from = dir == Direction::kOut ? walk[i + 1] : walk[i];
      const NodeId to = dir == Direction::kOut ? walk[i] : walk[i + 1];
      EXPECT_TRUE(g.has_edge(from, to)) << from << "->" << to;
      EXPECT_EQ(truth[walk[i + 1]] + 1, truth[walk[i]]) << v;
    }
    ++walked;
  }
  EXPECT_GT(walked, g.num_nodes() / 14);
}

TEST(LandmarkTableTest, FullModeParentsFormShortestPathTree) {
  // The tables store no parents: walk_tree derives each tree step from the
  // distance row and the graph.
  const auto g = testing::random_connected(300, 1200, 903);
  const auto lms = make_landmarks(g, 4.0, 904);
  const auto tables = LandmarkTables::build_full(g, lms);
  const NodeId l = lms.nodes.front();
  const auto truth = algo::bfs(g, l).dist;
  expect_tree_walks(g, tables, Direction::kOut, l, truth);
  expect_tree_walks(g, tables, Direction::kIn, l, truth);  // undirected

  util::Rng grng(9031);
  const auto dg = gen::erdos_renyi_directed(300, 1500, grng);
  const auto dlms = make_landmarks(dg, 2.0, 9032);
  const auto dtables = LandmarkTables::build_full(dg, dlms);
  const NodeId dl = dlms.nodes.front();
  expect_tree_walks(dg, dtables, Direction::kOut, dl, algo::bfs(dg, dl).dist);
  expect_tree_walks(dg, dtables, Direction::kIn, dl,
                    algo::bfs_reverse(dg, dl).dist);
}

TEST(LandmarkTableTest, SubsetModeMatchesFullMode) {
  const auto g = testing::random_connected(600, 2400, 905);
  const auto lms = make_landmarks(g, 2.0, 906);
  util::Rng rng(907);
  std::vector<NodeId> subset;
  for (auto v : rng.sample_without_replacement(g.num_nodes(), 40)) {
    subset.push_back(static_cast<NodeId>(v));
  }
  const auto full = LandmarkTables::build_full(g, lms);
  const auto sub = LandmarkTables::build_subset(g, lms, subset);
  ASSERT_EQ(sub.mode(), LandmarkTables::Mode::kSubset);
  for (const NodeId v : subset) {
    EXPECT_TRUE(sub.in_subset(v));
    for (const NodeId l : lms.nodes) {
      EXPECT_EQ(sub.subset_dist_to_landmark(v, l),
                full.dist_to_landmark(v, l));
      EXPECT_EQ(sub.landmark_query(l, v, /*s_is_landmark=*/true),
                full.landmark_query(l, v, /*s_is_landmark=*/true));
      EXPECT_EQ(sub.landmark_query(v, l, /*s_is_landmark=*/false),
                full.landmark_query(v, l, /*s_is_landmark=*/false));
    }
  }
}

TEST(LandmarkTableTest, DirectedModesRespectArcDirection) {
  util::Rng grng(908);
  const auto g = gen::erdos_renyi_directed(250, 1500, grng);
  const auto lms = make_landmarks(g, 2.0, 909);
  const auto tables = LandmarkTables::build_full(g, lms);
  const NodeId l = lms.nodes.front();
  const auto fwd = algo::bfs(g, l).dist;          // d(l -> v)
  const auto bwd = algo::bfs_reverse(g, l).dist;  // d(v -> l)
  for (NodeId v = 0; v < g.num_nodes(); v += 13) {
    EXPECT_EQ(tables.dist_from_landmark(l, v), fwd[v]);
    EXPECT_EQ(tables.dist_to_landmark(v, l), bwd[v]);
  }
}

TEST(LandmarkTableTest, DirectedSubsetMatchesFull) {
  util::Rng grng(910);
  const auto g = gen::erdos_renyi_directed(300, 2400, grng);
  const auto lms = make_landmarks(g, 2.0, 911);
  util::Rng rng(912);
  std::vector<NodeId> subset;
  for (auto v : rng.sample_without_replacement(g.num_nodes(), 30)) {
    subset.push_back(static_cast<NodeId>(v));
  }
  const auto full = LandmarkTables::build_full(g, lms);
  const auto sub = LandmarkTables::build_subset(g, lms, subset);
  for (const NodeId v : subset) {
    for (const NodeId l : lms.nodes) {
      EXPECT_EQ(sub.subset_dist_to_landmark(v, l),
                full.dist_to_landmark(v, l));
      EXPECT_EQ(sub.subset_dist_from_landmark(l, v),
                full.dist_from_landmark(l, v));
    }
  }
}

TEST(LandmarkTableTest, MisuseThrows) {
  const auto g = testing::karate_club();
  const auto lms = make_landmarks(g, 1.0, 913);
  const auto full = LandmarkTables::build_full(g, lms);
  NodeId non_landmark = 0;
  while (lms.contains(non_landmark)) ++non_landmark;
  EXPECT_THROW(full.dist_from_landmark(non_landmark, 0),
               std::invalid_argument);
  EXPECT_THROW(full.subset_dist_to_landmark(0, lms.nodes.front()),
               std::logic_error);  // wrong mode
  LandmarkTables none;
  EXPECT_THROW(none.landmark_query(0, 1, true), std::logic_error);
}

TEST(LandmarkTableTest, EntriesAndMemoryAccounting) {
  // Distances only: one row per landmark, plus a reverse row on directed
  // graphs. Bytes are the entries at their stored width (one byte on these
  // small-diameter graphs) plus the node -> landmark index.
  const auto g = testing::random_connected(200, 800, 914);
  const auto lms = make_landmarks(g, 2.0, 915);
  const auto tables = LandmarkTables::build_full(g, lms);
  EXPECT_EQ(tables.entries(), lms.size() * g.num_nodes());
  EXPECT_TRUE(tables.narrow());
  EXPECT_EQ(tables.memory_bytes(),
            tables.entries() + g.num_nodes() * sizeof(NodeId));

  util::Rng grng(916);
  const auto dg = gen::erdos_renyi_directed(200, 1200, grng);
  const auto dlms = make_landmarks(dg, 2.0, 917);
  const auto dtables = LandmarkTables::build_full(dg, dlms);
  EXPECT_EQ(dtables.entries(), 2 * dlms.size() * dg.num_nodes());
  EXPECT_TRUE(dtables.narrow());
  EXPECT_EQ(dtables.memory_bytes(),
            dtables.entries() + dg.num_nodes() * sizeof(NodeId));

  // A cycle of 600 has landmark rows reaching 300: four bytes per entry.
  const auto cycle = testing::cycle_graph(600);
  const auto clms = make_landmarks(cycle, 2.0, 918);
  const auto ctables = LandmarkTables::build_full(cycle, clms);
  EXPECT_FALSE(ctables.narrow());
  EXPECT_EQ(ctables.memory_bytes(),
            ctables.entries() * sizeof(Distance) +
                cycle.num_nodes() * sizeof(NodeId));
}

}  // namespace
}  // namespace vicinity::core
