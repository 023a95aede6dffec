// Parameterized property sweep over (graph family × alpha): the paper's
// Theorem 1 (intersection minimum is exact) and Lemma 1 (boundary-only
// iteration is lossless) must hold on every instance, and coverage must be
// monotone-ish in alpha.
#include <gtest/gtest.h>

#include <ostream>

#include "algo/bfs.h"
#include "gen/affiliation.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "graph/components.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

struct PropertyParam {
  const char* name;
  int kind;  // 0 ER, 1 BA, 2 powerlaw-cluster, 3 affiliation, 4 WS
  double alpha;
  std::uint64_t seed;
};

// Without a PrintTo, gtest prints a parameter as its raw bytes (pointer and
// padding included), which gtest_discover_tests copies into the ctest
// names; printing the case name keeps them stable across builds.
void PrintTo(const PropertyParam& p, std::ostream* os) { *os << p.name; }

graph::Graph make_graph(const PropertyParam& p) {
  util::Rng rng(p.seed);
  switch (p.kind) {
    case 0: {
      auto g = gen::erdos_renyi(1200, 4800, rng);
      return graph::largest_component(g).graph;
    }
    case 1:
      return gen::barabasi_albert(1200, 4, rng);
    case 2:
      return gen::powerlaw_cluster(1200, 4, 0.5, rng);
    case 3: {
      gen::AffiliationParams ap;
      ap.nodes = 1200;
      ap.communities = 900;
      auto g = gen::affiliation_graph(ap, rng);
      return graph::largest_component(g).graph;
    }
    default:
      return gen::watts_strogatz(1200, 4, 0.1, rng);
  }
}

class OracleProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(OracleProperty, AnsweredDistancesExact) {
  const auto g = make_graph(GetParam());
  OracleOptions opt;
  opt.alpha = GetParam().alpha;
  opt.seed = GetParam().seed + 1;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(GetParam().seed + 2);
  QueryContext ctx;
  for (int i = 0; i < 250; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method == QueryMethod::kNotFound) continue;
    ASSERT_EQ(r.dist, testing::ref_distance(g, s, t))
        << GetParam().name << " " << s << "->" << t << " via "
        << to_string(r.method);
  }
}

TEST_P(OracleProperty, BoundaryIterationLossless) {
  // Lemma 1: disabling the boundary optimization (full-Γ iteration) must
  // not change any answer — only the number of probes.
  const auto g = make_graph(GetParam());
  OracleOptions with_boundary;
  with_boundary.alpha = GetParam().alpha;
  with_boundary.seed = GetParam().seed + 1;
  // Both oracles iterate the source side, so the probe-count inequality
  // below compares |∂Γ(s)| with |Γ(s)| pair by pair. (Side selection
  // minimizes kernel work, iterated elements × probe cost, and may pick
  // different sides for the two oracles; its answer invariance is covered
  // by BackendEquivalence.IntersectionSideChoiceIsResultInvariant.)
  with_boundary.iterate_smaller_side = false;
  OracleOptions without_boundary = with_boundary;
  without_boundary.use_boundary_optimization = false;
  auto a = VicinityOracle::build(g, with_boundary);
  auto b = VicinityOracle::build(g, without_boundary);
  util::Rng rng(GetParam().seed + 3);
  std::uint64_t boundary_lookups = 0, full_lookups = 0;
  QueryContext ctx;
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto ra = a.distance(s, t, ctx);
    const auto rb = b.distance(s, t, ctx);
    ASSERT_EQ(ra.dist, rb.dist) << GetParam().name << " " << s << "->" << t;
    ASSERT_EQ(ra.method, rb.method);
    if (ra.method == QueryMethod::kVicinityIntersection) {
      boundary_lookups += ra.hash_lookups;
      full_lookups += rb.hash_lookups;
    }
  }
  // Boundary iteration probes a subset (∂Γ ⊆ Γ).
  EXPECT_LE(boundary_lookups, full_lookups);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndAlphas, OracleProperty,
    ::testing::Values(
        PropertyParam{"er_a1", 0, 1.0, 201},
        PropertyParam{"er_a4", 0, 4.0, 202},
        PropertyParam{"ba_a1", 1, 1.0, 203},
        PropertyParam{"ba_a4", 1, 4.0, 204},
        PropertyParam{"ba_a16", 1, 16.0, 205},
        PropertyParam{"plc_a05", 2, 0.5, 206},
        PropertyParam{"plc_a4", 2, 4.0, 207},
        PropertyParam{"aff_a4", 3, 4.0, 208},
        PropertyParam{"ws_a4", 4, 4.0, 209}),
    [](const auto& info) { return info.param.name; });

TEST(OracleCoverageTest, CoverageGrowsWithAlpha) {
  util::Rng grng(210);
  const auto g = gen::powerlaw_cluster(3000, 5, 0.5, grng);
  double prev = -1.0;
  for (const double alpha : {0.5, 2.0, 16.0}) {
    OracleOptions opt;
    opt.alpha = alpha;
    opt.seed = 211;
    opt.store_landmark_tables = false;  // pure vicinity coverage
    auto oracle = VicinityOracle::build(g, opt);
    util::Rng rng(212);
    const double cov = oracle.estimate_coverage(400, rng);
    EXPECT_GE(cov, prev - 0.05) << "alpha " << alpha;  // allow sampling noise
    prev = cov;
  }
  EXPECT_GT(prev, 0.9);  // alpha=4 covers nearly everything
}

TEST(OracleTheoremTest, IntersectionWitnessOnShortestPath) {
  // Direct Theorem 1 check: when the method is intersection, the reported
  // distance equals BFS ground truth (the witness lies on a shortest path).
  const auto g = testing::random_connected(1500, 6000, 213);
  OracleOptions opt;
  opt.alpha = 2.0;
  opt.seed = 214;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(215);
  std::size_t intersections = 0;
  QueryContext ctx;
  for (int i = 0; i < 400 && intersections < 120; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method != QueryMethod::kVicinityIntersection) continue;
    ++intersections;
    ASSERT_EQ(r.dist, testing::ref_distance(g, s, t));
  }
  EXPECT_GT(intersections, 20u);
}

TEST(OracleLemmaTest, EmptyIntersectionAgreesWithBruteForce) {
  // When the intersection misses — the oracle reports not-found, or answers
  // past it by landmark certificate or crossing edge — brute-force Γ(s)
  // ∩ Γ(t) must indeed be empty (the "only if" of Lemma 1).
  const auto g = testing::random_connected(800, 2400, 216);
  OracleOptions opt;
  opt.alpha = 0.5;  // small vicinities -> some misses
  opt.seed = 217;
  opt.store_landmark_tables = false;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(218);
  std::size_t misses = 0;
  QueryContext ctx;
  for (int i = 0; i < 300 && misses < 40; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    NodeId t = s;
    while (t == s) t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method != QueryMethod::kNotFound &&
        r.method != QueryMethod::kLandmarkCertificate &&
        r.method != QueryMethod::kCrossingEdge) {
      continue;
    }
    // Short-circuit conditions must genuinely not apply.
    if (oracle.landmarks().contains(s) || oracle.landmarks().contains(t)) {
      continue;
    }
    ++misses;
    std::size_t common = 0;
    oracle.store().for_each_member(
        s, [&](NodeId w, const StoredEntry&) {
          if (oracle.store().find(t, w).found) ++common;
        });
    ASSERT_EQ(common, 0u) << s << "->" << t << " via " << to_string(r.method);
  }
  EXPECT_GE(misses, 40u);
}

}  // namespace
}  // namespace vicinity::core
