// Distance-column widths (core/dist_column.h): a build stores each column
// one byte per entry exactly when its values fit, a repair that needs a
// value above 254 widens the column first, and a save followed by a
// mapped or heap reopen never widens one. Every answer and path stays
// BFS-exact throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "algo/bfs.h"
#include "algo/path.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "graph/builder.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

OracleOptions exact_options(double alpha, std::uint64_t seed) {
  OracleOptions opt;
  opt.alpha = alpha;
  opt.seed = seed;
  opt.fallback = Fallback::kBidirectionalBfs;
  return opt;
}

/// From ~30 sources to every target: distance() equals BFS, and every 7th
/// target's path() is a valid path of that length.
void expect_bfs_exact(const VicinityOracle& o, const graph::Graph& g) {
  QueryContext ctx;
  const NodeId step = std::max<NodeId>(1, g.num_nodes() / 30);
  for (NodeId s = 0; s < g.num_nodes(); s += step) {
    const std::vector<Distance> ref = algo::bfs(g, s).dist;
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_EQ(o.distance(s, t, ctx).dist, ref[t]) << s << "->" << t;
      if (t % 7 != 0) continue;
      const PathResult p = o.path(s, t, ctx);
      ASSERT_EQ(p.dist, ref[t]) << s << "->" << t;
      if (ref[t] == kInfDistance) {
        ASSERT_TRUE(p.path.empty()) << s << "->" << t;
        continue;
      }
      ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t)) << s << "->" << t;
      ASSERT_EQ(algo::path_length(g, p.path), ref[t]) << s << "->" << t;
    }
  }
}

/// Saves `o`, reopens it mapped and on the heap, and checks both answer
/// BFS-exactly. The tables keep their width; the store's sections take the
/// narrowest width its values allow, so a reopen is never wider.
void expect_reopens_alike(const VicinityOracle& o, const graph::Graph& g) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto path = std::filesystem::temp_directory_path() /
                    (std::string("vicinity_width_") + info->name() + ".idx");
  save_oracle_file(o, path.string());
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  for (const OpenOptions& opts : {OpenOptions{}, heap_opts}) {
    SCOPED_TRACE(opts.mode == OpenMode::kHeap ? "heap" : "mapped");
    const auto loaded = load_oracle_file(path.string(), g, opts);
    EXPECT_EQ(loaded.store().mapped(), opts.mode == OpenMode::kMapped);
    EXPECT_TRUE(loaded.store().narrow() || !o.store().narrow());
    EXPECT_EQ(loaded.tables().narrow(), o.tables().narrow());
    expect_bfs_exact(loaded, g);
  }
  std::filesystem::remove(path);
}

TEST(DistWidthTest, LongDiameterRowsStayFourByte) {
  // A cycle of 600 has landmark rows reaching 300, past a byte; its
  // vicinities (radii of a few hops) still fit one.
  const auto g = testing::cycle_graph(600);
  const auto oracle = VicinityOracle::build(g, exact_options(1.0, 2101));
  EXPECT_FALSE(oracle.tables().narrow());
  EXPECT_TRUE(oracle.store().narrow());
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
}

TEST(DistWidthTest, SmallWorldGraphIsByteWide) {
  const auto g = testing::random_connected(1500, 6000, 2111);
  const auto oracle = VicinityOracle::build(g, exact_options(2.0, 2112));
  EXPECT_TRUE(oracle.store().narrow());
  EXPECT_TRUE(oracle.tables().narrow());
  // The byte-wide rows cost one byte per entry.
  EXPECT_GT(oracle.tables().entries(), 0u);
  EXPECT_EQ(oracle.tables().memory_bytes(),
            oracle.tables().entries() + g.num_nodes() * sizeof(NodeId));
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
}

TEST(DistWidthTest, DeleteWidensTheRowMatrix) {
  // Rows of a 400-cycle reach 200. Cutting one edge leaves a 400-path whose
  // far end lies up to 399 hops from a landmark: the row repair must widen
  // the matrix before it stores that distance.
  auto g = testing::cycle_graph(400);
  auto oracle = VicinityOracle::build(g, exact_options(1.0, 2121));
  ASSERT_TRUE(oracle.tables().narrow());
  oracle.apply_update(g, GraphUpdate::remove(0, 1));
  EXPECT_FALSE(oracle.tables().narrow());
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
  // Closing the cycle again shrinks the values; the column stays wide.
  oracle.apply_update(g, GraphUpdate::insert(0, 1));
  EXPECT_FALSE(oracle.tables().narrow());
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
}

TEST(DistWidthTest, InsertWidensTheRowMatrix) {
  // Two 200-node paths: each row is finite (at most 199) on its landmark's
  // path and unreachable (the byte 255) on the other. Joining the paths end
  // to end makes the far end reachable from a landmark near the start at
  // more than 254 hops.
  graph::GraphBuilder b(400);
  for (NodeId u = 0; u + 1 < 400; ++u) {
    if (u != 199) b.add_edge(u, u + 1);
  }
  auto g = b.build();
  auto oracle = VicinityOracle::build(g, exact_options(1.0, 2131));
  ASSERT_TRUE(oracle.tables().narrow());
  ASSERT_LT(oracle.landmarks().nodes.front(), 145u);
  oracle.apply_update(g, GraphUpdate::insert(199, 200));
  EXPECT_FALSE(oracle.tables().narrow());
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
}

TEST(DistWidthTest, DeleteCuttingATailOffEveryLandmarkWidensTheVicinities) {
  // A 20-clique (which holds every top-degree landmark) joined by one edge
  // to the middle of a 300-node path: no path node is more than 151 hops
  // from a landmark. Deleting that edge leaves the path with no landmark,
  // so each path node's vicinity becomes the whole path, at distances up
  // to 299: the vicinity family must widen.
  constexpr NodeId kClique = 20;
  constexpr NodeId kTail = 300;
  graph::GraphBuilder b(kClique + kTail);
  for (NodeId u = 0; u < kClique; ++u) {
    for (NodeId v = u + 1; v < kClique; ++v) b.add_edge(u, v);
  }
  for (NodeId u = kClique; u + 1 < kClique + kTail; ++u) b.add_edge(u, u + 1);
  const NodeId middle = kClique + kTail / 2;
  b.add_edge(0, middle);
  auto g = b.build();
  OracleOptions opt = exact_options(3.0, 2141);
  opt.strategy = SamplingStrategy::kTopDegree;
  auto oracle = VicinityOracle::build(g, opt);
  for (const NodeId l : oracle.landmarks().nodes) ASSERT_LT(l, kClique);
  ASSERT_TRUE(oracle.store().narrow());
  ASSERT_TRUE(oracle.tables().narrow());
  expect_bfs_exact(oracle, g);

  oracle.apply_update(g, GraphUpdate::remove(0, middle));
  EXPECT_FALSE(oracle.store().narrow());
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);

  oracle.apply_update(g, GraphUpdate::insert(0, middle));
  expect_bfs_exact(oracle, g);
  expect_reopens_alike(oracle, g);
}

}  // namespace
}  // namespace vicinity::core
