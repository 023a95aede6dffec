// The weighted-graph soundness guard: Γ = B ∪ N(B) contains shell members
// beyond the radius, so an off-path intersection can overshoot d(s,t). The
// oracle accepts an intersection minimum only when it is <= radius(s) +
// radius(t), which is provably exact. These tests pin the construction that
// would otherwise produce a wrong answer, and sweep random weighted graphs.
#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "algo/path.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/vicinity_builder.h"
#include "graph/transform.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

// The adversarial construction (see DESIGN.md "weighted correctness"):
//   s -1- a -1- c1 -1- c2 -1- b -1- t        (true d(s,t) = 5)
//   s -2- ls (landmark)   t -2- lt (landmark)
//   a -100- x             b -100- x
// With radius 2 both balls are {s,a} / {t,b}; x sits in N(B) of both sides
// at distance 101, so Γ(s) ∩ Γ(t) = {x} with a candidate "distance" of 202.
// An unguarded intersection would return 202 and claim exactness.
graph::Graph adversarial_graph() {
  graph::GraphBuilder b(9);
  // s=0 a=1 c1=2 c2=3 b=4 t=5 ls=6 lt=7 x=8
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 4, 1);
  b.add_edge(4, 5, 1);
  b.add_edge(0, 6, 2);
  b.add_edge(5, 7, 2);
  b.add_edge(1, 8, 100);
  b.add_edge(4, 8, 100);
  return b.build(true);
}

TEST(WeightedGuardTest, AdversarialIntersectionIsRejectedNotWrong) {
  const auto g = adversarial_graph();
  // Hand-build the oracle pieces: landmarks {ls, lt}.
  LandmarkSet lms;
  lms.nodes = {6, 7};
  lms.member.resize(g.num_nodes());
  lms.member.set(6);
  lms.member.set(7);
  const auto nearest = nearest_landmarks(g, lms);
  ASSERT_EQ(nearest.dist[0], 2u);  // radius(s)
  ASSERT_EQ(nearest.dist[5], 2u);  // radius(t)

  VicinityBuilder builder(g);
  const auto vs = builder.build(0, nearest.dist[0], nearest.landmark[0]);
  const auto vt = builder.build(5, nearest.dist[5], nearest.landmark[5]);
  // x (node 8) is a member of both vicinities — the trap is armed.
  auto has_member = [](const Vicinity& v, NodeId node) {
    for (const auto& m : v.members) {
      if (m.node == node) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_member(vs, 8));
  ASSERT_TRUE(has_member(vt, 8));

  // Full oracle with those landmarks forced via top-degree? Instead build
  // with the public API but a seed-independent check: whatever landmarks
  // are sampled, any answered query must equal Dijkstra.
  QueryContext ctx;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    OracleOptions opt;
    opt.alpha = 1.0;
    opt.seed = seed;
    auto oracle = VicinityOracle::build(g, opt);
    const auto truth = algo::dijkstra(g, 0).dist;
    const auto r = oracle.distance(0, 5, ctx);
    if (r.method != QueryMethod::kNotFound) {
      ASSERT_EQ(r.dist, truth[5]) << "seed " << seed << " via "
                                  << to_string(r.method);
    }
  }
}

TEST(WeightedGuardTest, RandomWeightedSweepNeverOvershoots) {
  QueryContext ctx;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto base = testing::random_connected(300, 1200, 700 + seed);
    util::Rng wrng(710 + seed);
    const auto g = graph::with_random_weights(base, wrng, 1, 12);
    OracleOptions opt;
    opt.alpha = 2.0;
    opt.seed = 720 + seed;
    auto oracle = VicinityOracle::build(g, opt);
    util::Rng qrng(730 + seed);
    for (int i = 0; i < 80; ++i) {
      const auto s = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
      const auto r = oracle.distance(s, t, ctx);
      if (r.method == QueryMethod::kNotFound) continue;
      ASSERT_EQ(r.dist, testing::ref_distance(g, s, t))
          << "seed " << seed << " " << s << "->" << t << " via "
          << to_string(r.method);
    }
  }
}

TEST(WeightedGuardTest, GuardIsNoOpOnUnweightedGraphs) {
  // On unweighted graphs every stored distance is <= the radius, so the
  // guard can never reject: coverage with and without big weights must
  // differ only through the weighted guard, not on the unweighted side.
  const auto g = testing::random_connected(600, 2400, 741);
  OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 742;
  opt.store_landmark_tables = false;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng qrng(743);
  std::size_t rejected_at_guard = 0;
  std::size_t misses = 0;
  QueryContext ctx;
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    NodeId t = s;
    while (t == s) t = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method != QueryMethod::kNotFound &&
        r.method != QueryMethod::kLandmarkCertificate &&
        r.method != QueryMethod::kCrossingEdge) {
      continue;
    }
    // A miss at the intersection on unweighted graphs — not-found, or an
    // answer past it by certificate or crossing edge — must mean a
    // genuinely empty intersection (guard no-op): verify by brute force.
    ++misses;
    std::size_t common = 0;
    oracle.store().for_each_member(s, [&](NodeId w, const StoredEntry&) {
      if (oracle.store().find(t, w).found) ++common;
    });
    if (common != 0) ++rejected_at_guard;
  }
  EXPECT_EQ(rejected_at_guard, 0u);
  EXPECT_GE(misses, 24u);
}

TEST(WeightedGuardTest, WeightedPathsRemainValid) {
  auto base = testing::random_connected(300, 1200, 751);
  util::Rng wrng(752);
  const auto g = graph::with_random_weights(base, wrng, 1, 9);
  OracleOptions opt;
  opt.alpha = 8.0;
  opt.seed = 753;
  opt.fallback = Fallback::kBidirectionalBfs;  // used when chains leave Γ
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng qrng(754);
  QueryContext ctx;
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto p = oracle.path(s, t, ctx);
    if (p.path.empty()) continue;
    ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t));
    // Path length must equal the reported distance; distance itself may
    // come from the exact fallback, hence equals Dijkstra.
    ASSERT_EQ(algo::path_length(g, p.path), p.dist);
  }
}

}  // namespace
}  // namespace vicinity::core
