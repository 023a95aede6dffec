// Definition 1 conformance: the built vicinity must equal B(u) ∪ N(B(u))
// with exact distances and a correct boundary, and its stored distances
// must yield in-vicinity shortest-path trees (VicinityStore::walk_tree),
// across unweighted/weighted and undirected/directed graphs.
#include "core/vicinity_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "algo/bfs.h"
#include "algo/dijkstra.h"
#include "algo/path.h"
#include "core/vicinity_store.h"
#include "graph/transform.h"
#include "test_support.h"
#include "util/mutex.h"

namespace vicinity::core {
namespace {

/// Brute-force reference vicinity from full SSSP distances.
struct RefVicinity {
  std::set<NodeId> ball;
  std::set<NodeId> gamma;
  std::set<NodeId> boundary;
};

RefVicinity reference(const graph::Graph& g, NodeId u, Distance r,
                      Direction dir = Direction::kOut) {
  std::vector<Distance> dist;
  if (g.weighted()) {
    dist = dir == Direction::kOut ? algo::dijkstra(g, u).dist
                                  : algo::dijkstra_reverse(g, u).dist;
  } else {
    dist = dir == Direction::kOut ? algo::bfs(g, u).dist
                                  : algo::bfs_reverse(g, u).dist;
  }
  RefVicinity ref;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] < r) ref.ball.insert(v);
  }
  ref.gamma = ref.ball;
  for (const NodeId v : ref.ball) {
    const auto nbrs = dir == Direction::kOut ? g.neighbors(v) : g.in_neighbors(v);
    for (const NodeId w : nbrs) ref.gamma.insert(w);
  }
  for (const NodeId v : ref.gamma) {
    const auto nbrs = dir == Direction::kOut ? g.neighbors(v) : g.in_neighbors(v);
    for (const NodeId w : nbrs) {
      if (!ref.gamma.count(w)) {
        ref.boundary.insert(v);
        break;
      }
    }
  }
  return ref;
}

/// Stores `v` and walks the derived tree from every member to the origin.
/// Each walk that succeeds steps along arcs of g and is a shortest path of
/// the member's stored length. Every unweighted member has a walk, and so
/// does every weighted ball member (its shortest paths stay in the ball);
/// only a weighted shell member whose shortest paths all leave Γ may have
/// none. Returns the number of members without a walk.
std::size_t check_derived_walks(const graph::Graph& g, const Vicinity& v,
                                Direction dir) {
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{v.origin});
  store.set(v.origin, v);
  std::size_t missing = 0;
  for (const auto& m : v.members) {
    std::vector<NodeId> walk;
    if (!store.walk_tree(g, dir, v.origin, m.node, walk)) {
      EXPECT_TRUE(g.weighted() && !m.in_ball) << "no walk from " << m.node;
      ++missing;
      continue;
    }
    // A kOut walk reads origin -> member backwards; a kIn walk reads
    // member -> origin forwards.
    if (dir == Direction::kOut) std::reverse(walk.begin(), walk.end());
    const NodeId from = dir == Direction::kOut ? v.origin : m.node;
    const NodeId to = dir == Direction::kOut ? m.node : v.origin;
    EXPECT_TRUE(algo::is_valid_path(g, walk, from, to)) << m.node;
    EXPECT_EQ(algo::path_length(g, walk), m.dist) << m.node;
  }
  return missing;
}

void check_against_reference(const graph::Graph& g, NodeId u, Distance r,
                             Direction dir = Direction::kOut) {
  VicinityBuilder builder(g, dir);
  const Vicinity v = builder.build(u, r, /*nearest_landmark=*/kInvalidNode);
  const RefVicinity ref = reference(g, u, r, dir);

  std::set<NodeId> got;
  for (const auto& m : v.members) got.insert(m.node);
  EXPECT_EQ(got, ref.gamma) << "Γ mismatch at u=" << u << " r=" << r;

  std::vector<Distance> dist;
  if (g.weighted()) {
    dist = dir == Direction::kOut ? algo::dijkstra(g, u).dist
                                  : algo::dijkstra_reverse(g, u).dist;
  } else {
    dist = dir == Direction::kOut ? algo::bfs(g, u).dist
                                  : algo::bfs_reverse(g, u).dist;
  }
  std::set<NodeId> got_ball, got_boundary;
  for (const auto& m : v.members) {
    EXPECT_EQ(m.dist, dist[m.node]) << "dist mismatch at " << m.node;
    if (m.in_ball) got_ball.insert(m.node);
    if (m.on_boundary) got_boundary.insert(m.node);
  }
  check_derived_walks(g, v, dir);
  EXPECT_EQ(got_ball, ref.ball);
  EXPECT_EQ(got_boundary, ref.boundary);
  EXPECT_EQ(v.ball_size, ref.ball.size());
  EXPECT_EQ(v.boundary_size, ref.boundary.size());
}

TEST(VicinityBuilderTest, ZeroRadiusIsEmpty) {
  const auto g = testing::karate_club();
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(5, 0, 5);
  EXPECT_TRUE(v.members.empty());
  EXPECT_EQ(v.ball_size, 0u);
  EXPECT_EQ(v.boundary_size, 0u);
  EXPECT_EQ(v.radius, 0u);
}

TEST(VicinityBuilderTest, RadiusOneBallIsOriginOnly) {
  const auto g = testing::star_graph(6);
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(1, 1, kInvalidNode);  // leaf, r=1
  // B = {leaf}; Γ = leaf + center.
  EXPECT_EQ(v.ball_size, 1u);
  EXPECT_EQ(v.members.size(), 2u);
}

TEST(VicinityBuilderTest, MatchesReferenceAcrossRadii) {
  const auto g = testing::karate_club();
  for (const NodeId u : {0u, 4u, 16u, 33u}) {
    for (Distance r = 1; r <= 4; ++r) {
      check_against_reference(g, u, r);
    }
  }
}

TEST(VicinityBuilderTest, MatchesReferenceOnRandomGraphs) {
  const auto g = testing::random_connected(300, 900, 121);
  util::Rng rng(122);
  for (int i = 0; i < 15; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = static_cast<Distance>(1 + rng.next_below(4));
    check_against_reference(g, u, r);
  }
}

TEST(VicinityBuilderTest, InfiniteRadiusCoversComponent) {
  const auto g = testing::karate_club();
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(0, kInfDistance, kInvalidNode);
  EXPECT_EQ(v.members.size(), g.num_nodes());
  EXPECT_EQ(v.boundary_size, 0u);  // nothing outside Γ
}

TEST(VicinityBuilderTest, WeightedMatchesReference) {
  auto base = testing::random_connected(200, 700, 123);
  util::Rng wrng(124);
  const auto g = graph::with_random_weights(base, wrng, 1, 5);
  util::Rng rng(125);
  for (int i = 0; i < 12; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = static_cast<Distance>(2 + rng.next_below(10));
    check_against_reference(g, u, r);
  }
}

TEST(VicinityBuilderTest, WeightedShellDistancesExactDespiteDetours) {
  // Shell node w's shortest path leaves Γ: with radius 2 the ball is
  // {u, a}; w = N(B) via the heavy a-w edge, but its true distance runs
  // through c and b, and b is NOT a vicinity member (no ball neighbor).
  // Layout: u(0)-a(1) w1, a-w(4) w10, u-c(2) w4, c-b(3) w1, b-w w1.
  graph::GraphBuilder b(5);
  b.add_edge(0, 1, 1);   // u-a
  b.add_edge(1, 4, 10);  // a-w
  b.add_edge(0, 2, 4);   // u-c
  b.add_edge(2, 3, 1);   // c-b
  b.add_edge(3, 4, 1);   // b-w
  const auto g = b.build(true);
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(0, 2, kInvalidNode);
  bool found_w = false;
  for (const auto& m : v.members) {
    if (m.node == 4) {
      found_w = true;
      EXPECT_EQ(m.dist, 6u);  // exact despite the path through b ∉ Γ
    }
    EXPECT_NE(m.node, 3u);  // b itself is not a member
  }
  EXPECT_TRUE(found_w);
}

TEST(VicinityBuilderTest, DirectedOutVicinity) {
  util::Rng rng(126);
  const auto g = gen::erdos_renyi_directed(150, 900, rng);
  util::Rng rng2(127);
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<NodeId>(rng2.next_below(g.num_nodes()));
    check_against_reference(g, u, 2, Direction::kOut);
  }
}

TEST(VicinityBuilderTest, DirectedInVicinity) {
  util::Rng rng(128);
  const auto g = gen::erdos_renyi_directed(150, 900, rng);
  util::Rng rng2(129);
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<NodeId>(rng2.next_below(g.num_nodes()));
    check_against_reference(g, u, 2, Direction::kIn);
  }
}

TEST(VicinityBuilderTest, ParentsChaseBackToOrigin) {
  const auto g = testing::random_connected(400, 1600, 130);
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(7, 3, kInvalidNode);
  // Every member's derived walk reaches the origin along arcs, a shortest
  // path of the member's stored length.
  EXPECT_EQ(check_derived_walks(g, v, Direction::kOut), 0u);
  // WeightedShellDistancesExactDespiteDetours' graph: w's shortest path
  // runs through b, which is no member, so only w has no walk.
  graph::GraphBuilder b(5);
  b.add_edge(0, 1, 1);   // u-a
  b.add_edge(1, 4, 10);  // a-w
  b.add_edge(0, 2, 4);   // u-c
  b.add_edge(2, 3, 1);   // c-b
  b.add_edge(3, 4, 1);   // b-w
  const auto wg = b.build(true);
  VicinityBuilder wbuilder(wg);
  EXPECT_EQ(check_derived_walks(wg, wbuilder.build(0, 2, kInvalidNode),
                                Direction::kOut),
            1u);
}

TEST(VicinityBuilderTest, ArcsScannedPositiveAndBounded) {
  const auto g = testing::karate_club();
  VicinityBuilder builder(g);
  const Vicinity v = builder.build(0, 2, kInvalidNode);
  EXPECT_GT(v.arcs_scanned, 0u);
  EXPECT_LE(v.arcs_scanned, g.num_arcs());
}

}  // namespace
}  // namespace vicinity::core
