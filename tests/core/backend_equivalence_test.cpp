// Ground-truth equivalence for the packed vicinity store: every answer of
// an oracle with the exact fallback must equal the BFS distance
// (testing::ref_distance) — on undirected, grid-structured and directed
// graphs, through dynamic-update streams — and the answer must not depend
// on which side the intersection iterates.
#include <gtest/gtest.h>

#include <vector>

#include "core/oracle.h"
#include "core/query_engine.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

// Sanitizer builds run the randomized streams at reduced size.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VICINITY_EQ_SANITIZED 1
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VICINITY_EQ_SANITIZED 1
#endif
#endif
#endif
#ifdef VICINITY_EQ_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

graph::Graph rmat_lcc(unsigned scale, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RmatParams params;
  auto raw = gen::rmat(scale, std::uint64_t{8} << scale, params, rng);
  return graph::largest_component(raw).graph;
}

OracleOptions base_options() {
  OracleOptions o;
  o.alpha = 3.0;
  o.seed = 77;
  o.fallback = Fallback::kBidirectionalBfs;
  return o;
}

/// Every query answers, and answers the exact BFS distance.
void expect_exact_stream(const VicinityOracle& oracle, const graph::Graph& g,
                         int queries, std::uint64_t seed, const char* label) {
  QueryContext ctx;
  util::Rng rng(seed);
  for (int i = 0; i < queries; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const QueryResult r = oracle.distance(s, t, ctx);
    ASSERT_NE(r.method, QueryMethod::kNotFound) << label << " " << s << "->"
                                                << t;
    ASSERT_EQ(r.dist, testing::ref_distance(g, s, t))
        << label << " " << s << "->" << t << " via " << to_string(r.method);
  }
}

TEST(BackendEquivalence, RmatGraphBitIdenticalQueryStreams) {
  const auto g = rmat_lcc(kSanitized ? 10 : 12, 501);
  const auto oracle = VicinityOracle::build(g, base_options());
  expect_exact_stream(oracle, g, kSanitized ? 400 : 2000, 502, "rmat");
}

TEST(BackendEquivalence, GridGraphBitIdenticalQueryStreams) {
  // Grids maximize boundary size relative to vicinity size — the packed
  // kernel's merge-heavy regime.
  const auto g = testing::grid_graph(40, 40);
  const auto oracle = VicinityOracle::build(g, base_options());
  expect_exact_stream(oracle, g, 1500, 503, "grid");
}

TEST(BackendEquivalence, DirectedGraphBitIdenticalQueryStreams) {
  const auto g = testing::random_connected_directed(800, 6400, 504);
  const auto oracle = VicinityOracle::build(g, base_options());
  expect_exact_stream(oracle, g, 1500, 505, "directed");
}

TEST(BackendEquivalence, EquivalentAfterUpdateStream) {
  // A stream of insert/delete repairs must keep every answer exact on the
  // updated graph — this drives the packed slot-replacement path (in-place
  // rewrites, staging, occasional compaction) against BFS ground truth.
  auto g = rmat_lcc(kSanitized ? 9 : 10, 506);
  auto oracle = VicinityOracle::build(g, base_options());

  util::Rng rng(507);
  std::vector<std::pair<NodeId, NodeId>> inserted;
  const int updates = kSanitized ? 20 : 60;
  for (int step = 0; step < updates; ++step) {
    const bool do_delete = !inserted.empty() && rng.next_below(3) == 0;
    GraphUpdate upd{};
    if (do_delete) {
      const auto pick = rng.next_below(inserted.size());
      upd = GraphUpdate::remove(inserted[pick].first, inserted[pick].second);
      inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      NodeId a = 0, b = 0;
      do {
        a = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        b = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      } while (a == b || g.has_edge(a, b));
      upd = GraphUpdate::insert(a, b);
      inserted.emplace_back(a, b);
    }
    oracle.apply_update(g, upd);
    if (step % 10 == 0 || step + 1 == updates) {
      expect_exact_stream(oracle, g, kSanitized ? 60 : 200,
                          508 + static_cast<std::uint64_t>(step),
                          "update-stream");
    }
  }
  // The running totals still match a recount of the stored vicinities.
  std::uint64_t entries = 0, boundary = 0;
  for (const NodeId u : oracle.indexed_nodes()) {
    entries += oracle.store().vicinity_size(u);
    boundary += oracle.store().boundary_size(u);
  }
  EXPECT_EQ(oracle.store().total_entries(), entries);
  EXPECT_EQ(oracle.store().total_boundary_entries(), boundary);
}

TEST(BackendEquivalence, IntersectionSideChoiceIsResultInvariant) {
  // Satellite regression for the side-selection fix: whichever side the
  // intersection iterates (cost-model choice, forced s-side, or forced
  // t-side via swapped queries on an undirected graph), the (dist, method,
  // exact) answer must be identical. Lemma 1 holds symmetrically; only the
  // probe count may differ.
  const auto g = rmat_lcc(kSanitized ? 9 : 11, 509);
  const OracleOptions chosen = base_options();
  OracleOptions forced = chosen;
  forced.iterate_smaller_side = false;  // always iterate ∂Γ(s)
  auto a = VicinityOracle::build(g, chosen);
  auto b = VicinityOracle::build(g, forced);
  QueryContext ca, cb, cc;
  util::Rng rng(510);
  for (int i = 0; i < (kSanitized ? 300 : 1200); ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto rc = a.distance(s, t, ca);
    const auto rf = b.distance(s, t, cb);   // forced ∂Γ(s)
    const auto rr = b.distance(t, s, cc);   // forced ∂Γ(t) (undirected)
    ASSERT_EQ(rc.dist, rf.dist) << s << "->" << t;
    ASSERT_EQ(rc.method, rf.method);
    ASSERT_EQ(rc.exact, rf.exact);
    ASSERT_EQ(rc.dist, rr.dist) << s << "->" << t;
    ASSERT_EQ(rc.exact, rr.exact);
  }
}

}  // namespace
}  // namespace vicinity::core
