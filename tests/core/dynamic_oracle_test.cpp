// Dynamic-update subsystem: after every edge insert/delete the repaired
// index must answer exactly like a from-scratch rebuild (which, with an
// exact fallback configured, means exactly like BFS/Dijkstra ground truth
// on the mutated graph). Covers deterministic small cases, randomized
// update streams (unweighted / weighted / directed), the rebuild-fallback
// threshold, and concurrent run_batch + apply_update through QueryEngine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "algo/bidirectional_bfs.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "gen/erdos_renyi.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "test_support.h"
#include "util/rng.h"

// The ~50k-node stream is a throughput-scale workload; under ASan/TSan it
// would dominate the suite, and the sanitizer jobs already race/poison-check
// the same code on the medium streams below.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VICINITY_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VICINITY_SANITIZED 1
#endif
#endif

namespace vicinity::core {
namespace {

OracleOptions exact_options(std::uint64_t seed) {
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = seed;
  opt.fallback = Fallback::kBidirectionalBfs;
  return opt;
}

/// Uniform random existing edge (u < v for undirected graphs).
std::pair<NodeId, NodeId> random_edge(const graph::Graph& g, util::Rng& rng) {
  while (true) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto deg = g.degree(u);
    if (deg == 0) continue;
    const NodeId v = g.neighbors(u)[rng.next_below(deg)];
    return {u, v};
  }
}

std::pair<NodeId, NodeId> random_non_edge(const graph::Graph& g,
                                          util::Rng& rng) {
  while (true) {
    const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (u != v && !g.has_edge(u, v)) return {u, v};
  }
}

/// Checks that `p` is a real path s..t in g whose length equals `dist`.
void expect_valid_path(const graph::Graph& g, NodeId s, NodeId t,
                       const PathResult& p, Distance dist) {
  ASSERT_EQ(p.dist, dist);
  if (dist == kInfDistance) return;
  ASSERT_FALSE(p.path.empty());
  EXPECT_EQ(p.path.front(), s);
  EXPECT_EQ(p.path.back(), t);
  Distance len = 0;
  for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
    const Weight w = g.edge_weight(p.path[i], p.path[i + 1]);
    ASSERT_NE(w, kInfDistance)
        << "path uses missing edge " << p.path[i] << "-" << p.path[i + 1];
    len = dist_add(len, w);
  }
  EXPECT_EQ(len, dist);
}

/// Applies `updates` alternating random deletes and inserts, cross-checking
/// sampled distance()+path() against ground truth after every update and
/// against a from-scratch rebuild at checkpoints.
void run_update_stream(graph::Graph& g, const OracleOptions& opt,
                       int updates, int samples_per_update,
                       int checkpoint_every, int checkpoint_samples,
                       std::uint64_t seed) {
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(seed);
  QueryContext ctx;
  algo::BidirBfsScratch ref_scratch;
  std::size_t inserts = 0;
  std::size_t deletes = 0;

  for (int step = 0; step < updates; ++step) {
    UpdateStats stats;
    if (step % 2 == 0 && g.num_edges() > 1) {
      const auto [u, v] = random_edge(g, rng);
      stats = oracle.apply_update(g, GraphUpdate::remove(u, v));
      ++deletes;
    } else {
      const auto [u, v] = random_non_edge(g, rng);
      const Weight w =
          g.weighted() ? static_cast<Weight>(1 + rng.next_below(9)) : 1;
      stats = oracle.apply_update(g, GraphUpdate::insert(u, v, w));
      ++inserts;
    }
    EXPECT_EQ(stats.seconds >= 0.0, true);

    for (int q = 0; q < samples_per_update; ++q) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const Distance ref =
          g.weighted()
              ? testing::ref_distance(g, s, t)
              : algo::bidirectional_bfs_distance(g, ref_scratch, s, t).dist;
      const QueryResult r = oracle.distance(s, t, ctx);
      if (r.exact) {
        ASSERT_EQ(r.dist, ref) << "step=" << step << " s=" << s << " t=" << t;
      } else {
        // Exact-fallback configs answer everything; fallback-free (weighted)
        // configs may report not-found for the rare non-intersecting pair.
        ASSERT_EQ(r.method, QueryMethod::kNotFound)
            << "step=" << step << " s=" << s << " t=" << t;
      }
      if (q == 0 && r.exact && opt.fallback != Fallback::kNone) {
        expect_valid_path(g, s, t, oracle.path(s, t, ctx), ref);
      }
    }

    if (checkpoint_every > 0 && (step + 1) % checkpoint_every == 0) {
      // A fresh build on the mutated graph may draw different landmarks
      // (degrees changed), so compare answers, not internals.
      auto fresh = VicinityOracle::build(g, opt);
      QueryContext fresh_ctx;
      for (int q = 0; q < checkpoint_samples; ++q) {
        const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const QueryResult a = oracle.distance(s, t, ctx);
        const QueryResult b = fresh.distance(s, t, fresh_ctx);
        // The fresh build may draw a different landmark set (degrees
        // changed), so exact coverage can differ; exact answers must agree.
        if (a.exact && b.exact) {
          ASSERT_EQ(a.dist, b.dist)
              << "rebuild divergence at step=" << step << " s=" << s
              << " t=" << t;
        }
      }
    }
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(deletes, 0u);
}

TEST(DynamicOracleTest, InsertShortcutOnPathGraph) {
  auto g = testing::path_graph(10);
  auto oracle = VicinityOracle::build(g, exact_options(7));
  QueryContext ctx;
  ASSERT_EQ(oracle.distance(0, 9, ctx).dist, 9u);

  const UpdateStats stats = oracle.apply_update(g, GraphUpdate::insert(0, 9));
  EXPECT_EQ(stats.kind, UpdateKind::kInsert);
  EXPECT_GT(stats.affected_vicinities, 0u);

  for (NodeId s = 0; s < 10; ++s) {
    for (NodeId t = 0; t < 10; ++t) {
      const Distance ref = testing::ref_distance(g, s, t);
      EXPECT_EQ(oracle.distance(s, t, ctx).dist, ref) << s << "," << t;
    }
  }
  EXPECT_EQ(oracle.distance(0, 9, ctx).dist, 1u);
}

TEST(DynamicOracleTest, DeleteBridgeDisconnects) {
  // Two triangles joined by a bridge; deleting the bridge must yield
  // provably-unreachable (exact infinite) answers across it.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 3);
  b.add_edge(2, 3);  // bridge
  auto g = b.build();
  auto oracle = VicinityOracle::build(g, exact_options(11));
  QueryContext ctx;
  ASSERT_NE(oracle.distance(0, 5, ctx).dist, kInfDistance);

  const UpdateStats stats = oracle.apply_update(g, GraphUpdate::remove(2, 3));
  EXPECT_EQ(stats.kind, UpdateKind::kDelete);

  const QueryResult r = oracle.distance(0, 5, ctx);
  EXPECT_EQ(r.dist, kInfDistance);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(oracle.distance(0, 2, ctx).dist, 1u);
  EXPECT_EQ(oracle.distance(3, 5, ctx).dist, 1u);
}

TEST(DynamicOracleTest, InsertThenDeleteRoundTripsToOriginalAnswers) {
  auto g = testing::random_connected(300, 900, 501);
  auto oracle = VicinityOracle::build(g, exact_options(502));
  util::Rng rng(503);
  std::vector<std::pair<NodeId, NodeId>> pairs(200);
  for (auto& p : pairs) {
    p = {static_cast<NodeId>(rng.next_below(g.num_nodes())),
         static_cast<NodeId>(rng.next_below(g.num_nodes()))};
  }
  QueryContext ctx;
  std::vector<Distance> before;
  for (const auto& [s, t] : pairs) before.push_back(oracle.distance(s, t, ctx).dist);

  const auto [u, v] = random_non_edge(g, rng);
  oracle.apply_update(g, GraphUpdate::insert(u, v));
  oracle.apply_update(g, GraphUpdate::remove(u, v));

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(oracle.distance(pairs[i].first, pairs[i].second, ctx).dist,
              before[i]);
  }
}

TEST(DynamicOracleTest, RandomizedStreamMatchesGroundTruthAndRebuild) {
  auto g = testing::random_connected(3000, 9000, 601);
  run_update_stream(g, exact_options(602), /*updates=*/400,
                    /*samples_per_update=*/8, /*checkpoint_every=*/100,
                    /*checkpoint_samples=*/300, 603);
}

TEST(DynamicOracleTest, WeightedStreamMatchesDijkstra) {
  util::Rng grng(701);
  graph::GraphBuilder b(400);
  // Connected backbone + random chords, weights 1..10.
  for (NodeId u = 0; u + 1 < 400; ++u) {
    b.add_edge(u, u + 1, static_cast<Weight>(1 + grng.next_below(10)));
  }
  for (int i = 0; i < 900; ++i) {
    const auto u = static_cast<NodeId>(grng.next_below(400));
    const auto v = static_cast<NodeId>(grng.next_below(400));
    if (u != v) b.add_edge(u, v, static_cast<Weight>(1 + grng.next_below(10)));
  }
  auto g = b.build(/*weighted=*/true);
  ASSERT_TRUE(g.weighted());
  // The bidirectional-BFS fallback is hop-based (unweighted-only), so the
  // weighted stream runs fallback-free: every exact answer is checked
  // against Dijkstra, not-founds are allowed for non-intersecting pairs.
  OracleOptions opt = exact_options(702);
  opt.fallback = Fallback::kNone;
  run_update_stream(g, opt, /*updates=*/160,
                    /*samples_per_update=*/6, /*checkpoint_every=*/80,
                    /*checkpoint_samples=*/150, 703);
}

TEST(DynamicOracleTest, ZeroThresholdForcesFullRebuildAndStaysExact) {
  auto g = testing::random_connected(500, 1500, 801);
  OracleOptions opt = exact_options(802);
  opt.update_rebuild_fraction = 0.0;  // every update -> targeted full rebuild
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(803);
  for (int step = 0; step < 6; ++step) {
    const auto [u, v] = random_non_edge(g, rng);
    const UpdateStats stats = oracle.apply_update(g, GraphUpdate::insert(u, v));
    EXPECT_TRUE(stats.full_rebuild);
    EXPECT_EQ(stats.affected_vicinities, g.num_nodes());
  }
  QueryContext ctx;
  for (int q = 0; q < 100; ++q) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(oracle.distance(s, t, ctx).dist, testing::ref_distance(g, s, t));
  }
}

TEST(DynamicOracleTest, RejectsForeignGraphSubsetIndexAndBadEdges) {
  auto g = testing::random_connected(200, 600, 901);
  auto g2 = testing::random_connected(200, 600, 901);
  auto oracle = VicinityOracle::build(g, exact_options(902));
  EXPECT_THROW(oracle.apply_update(g2, GraphUpdate::insert(0, 1)),
               std::invalid_argument);

  util::Rng rng(903);
  const auto [u, v] = random_edge(g, rng);
  EXPECT_THROW(oracle.apply_update(g, GraphUpdate::insert(u, v)),
               std::invalid_argument);  // already present
  const auto [x, y] = random_non_edge(g, rng);
  EXPECT_THROW(oracle.apply_update(g, GraphUpdate::remove(x, y)),
               std::invalid_argument);  // absent

  const std::vector<NodeId> subset = {0, 1, 2, 3, 4, 5, 6, 7};
  auto partial = VicinityOracle::build_for(g, exact_options(904), subset);
  EXPECT_THROW(partial.apply_update(g, GraphUpdate::insert(x, y)),
               std::logic_error);
}

TEST(DynamicOracleTest, LandmarkParentsAndAssignmentsStayConsistent) {
  // Two repair invariants a stale-row or stale-pointer bug would break:
  //  (a) landmark-endpoint path(), from and to the landmark, walks a tree
  //      derived from the repaired row and the current graph: it must use
  //      only existing arcs and stay shortest after any update;
  //  (b) nearest_.landmark[x] must keep attaining nearest_.dist[x] — the
  //      kLandmarkEstimate upper bound d(s,l(s)) + d(l(s),t) rides on it.
  auto g = testing::random_connected(800, 2400, 1601);
  auto oracle = VicinityOracle::build(g, exact_options(1602));
  util::Rng rng(1603);
  QueryContext ctx;

  for (int step = 0; step < 120; ++step) {
    if (step % 2 == 0 && g.num_edges() > 1) {
      const auto [u, v] = random_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::remove(u, v));
    } else {
      const auto [u, v] = random_non_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::insert(u, v));
    }
    // (a) landmark-endpoint paths, source and target side.
    const auto& lms = oracle.landmarks().nodes;
    for (int q = 0; q < 4; ++q) {
      const NodeId l = lms[rng.next_below(lms.size())];
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const Distance ref = testing::ref_distance(g, l, t);
      const PathResult from_l = oracle.path(l, t, ctx);
      const PathResult to_l = oracle.path(t, l, ctx);
      expect_valid_path(g, l, t, from_l, ref);
      expect_valid_path(g, t, l, to_l, ref);
      if (t != l) {
        EXPECT_EQ(from_l.method, QueryMethod::kSourceIsLandmark);
        EXPECT_EQ(to_l.method, oracle.landmarks().contains(t)
                                   ? QueryMethod::kSourceIsLandmark
                                   : QueryMethod::kTargetIsLandmark);
      }
    }
    // (b) assignment consistency: the assigned landmark attains the
    // recorded nearest distance (checked against its refreshed row), and
    // the store metadata (which serialization persists) tracks the field.
    const auto& nearest = oracle.nearest_landmark_info();
    for (int q = 0; q < 16; ++q) {
      const auto x = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const NodeId l = nearest.landmark[x];
      if (l == kInvalidNode) continue;
      ASSERT_EQ(oracle.tables().dist_from_landmark(l, x), nearest.dist[x])
          << "step=" << step << " x=" << x << " l=" << l;
      ASSERT_EQ(oracle.store().nearest_landmark(x), l)
          << "step=" << step << " x=" << x;
    }
  }
}

TEST(DynamicOracleTest, SaveLoadAfterUpdatesRoundTrips) {
  // A repaired index must serialize like any other: save after a burst of
  // updates, reload against the mutated graph, answers identical.
  auto g = testing::random_connected(400, 1200, 1501);
  auto oracle = VicinityOracle::build(g, exact_options(1502));
  util::Rng rng(1503);
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      const auto [u, v] = random_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::remove(u, v));
    } else {
      const auto [u, v] = random_non_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::insert(u, v));
    }
  }
  std::ostringstream out(std::ios::binary);
  save_oracle(oracle, out);
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = load_oracle(in, g);
  QueryContext ctx;
  QueryContext loaded_ctx;
  for (int q = 0; q < 300; ++q) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const QueryResult a = oracle.distance(s, t, ctx);
    const QueryResult b = loaded.distance(s, t, loaded_ctx);
    ASSERT_EQ(a.dist, b.dist);
    ASSERT_EQ(a.method, b.method);
  }
}

TEST(DynamicDirectedOracleTest, RandomizedArcStreamMatchesForwardBfs) {
  util::Rng grng(1001);
  auto g = gen::erdos_renyi_directed(600, 3000, grng);
  OracleOptions opt = exact_options(1002);
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(1003);
  QueryContext ctx;

  for (int step = 0; step < 160; ++step) {
    if (step % 2 == 0 && g.num_edges() > 1) {
      const auto [u, v] = random_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::remove(u, v));
    } else {
      const auto [u, v] = random_non_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::insert(u, v));
    }
    for (int q = 0; q < 6; ++q) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const Distance ref = algo::bfs(g, s).dist[t];
      const QueryResult r = oracle.distance(s, t, ctx);
      ASSERT_EQ(r.dist, ref) << "step=" << step << " s=" << s << " t=" << t;
      ASSERT_TRUE(r.exact);
    }
  }

  // Final cross-check against a from-scratch directed rebuild.
  auto fresh = VicinityOracle::build(g, opt);
  QueryContext fresh_ctx;
  for (int q = 0; q < 300; ++q) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    ASSERT_EQ(oracle.distance(s, t, ctx).dist,
              fresh.distance(s, t, fresh_ctx).dist);
  }
}

TEST(DynamicEngineTest, ApplyUpdateAdvancesEpochAndStaysDeterministic) {
  auto g = testing::random_connected(800, 2400, 1101);
  QueryEngine engine(
      make_any_oracle(VicinityOracle::build(g, exact_options(1102))), 4);
  EXPECT_EQ(engine.epoch(), 0u);

  util::Rng rng(1103);
  std::vector<Query> batch(500);
  for (auto& q : batch) {
    q.s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }
  const auto [u, v] = random_non_edge(g, rng);
  engine.apply_update(g, GraphUpdate::insert(u, v));
  EXPECT_EQ(engine.epoch(), 1u);
  engine.apply_update(g, GraphUpdate::remove(u, v));
  EXPECT_EQ(engine.epoch(), 2u);

  // One epoch -> bit-identical answers for every thread count.
  const auto seq = engine.run_batch(batch, 1);
  const auto par = engine.run_batch(batch, 4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(seq[i].dist, par[i].dist);
    ASSERT_EQ(seq[i].method, par[i].method);
  }
}

TEST(DynamicEngineTest, ConstOracleEngineRefusesUpdates) {
  auto g = testing::random_connected(100, 300, 1201);
  auto shared = std::make_shared<const VicinityOracle>(
      VicinityOracle::build(g, exact_options(1202)));
  QueryEngine engine(make_any_oracle(shared), 2);
  EXPECT_THROW(engine.apply_update(g, GraphUpdate::insert(0, 99)),
               std::logic_error);
  EXPECT_EQ(engine.epoch(), 0u);
}

TEST(DynamicEngineTest, ConcurrentBatchesAndUpdatesStayExact) {
  // The epoch fence under race pressure: one thread streams updates while
  // this thread hammers run_batch. Every batch must be served from a
  // consistent index (all answers exact); afterwards the repaired index
  // must agree with a from-scratch rebuild.
  auto g = testing::random_connected(1500, 4500, 1301);
  OracleOptions opt = exact_options(1302);
  QueryEngine engine(make_any_oracle(VicinityOracle::build(g, opt)), 4);

  util::Rng rng(1303);
  std::vector<Query> batch(400);
  for (auto& q : batch) {
    q.s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    q.t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  }

  constexpr int kUpdates = 80;
  std::thread updater([&] {
    util::Rng urng(1304);
    for (int i = 0; i < kUpdates; ++i) {
      // apply_update takes the batch lock itself; edge picks must also be
      // fenced from concurrent relocation of adjacency, so pre-picking
      // happens against num_nodes only (stable) and collisions retry.
      const auto u = static_cast<NodeId>(urng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(urng.next_below(g.num_nodes()));
      if (u == v) continue;
      try {
        engine.apply_update(g, g.has_edge(u, v) ? GraphUpdate::remove(u, v)
                                                : GraphUpdate::insert(u, v));
      } catch (const std::invalid_argument&) {
        // lost a race between has_edge probe and the fenced update; skip
      }
    }
  });

  int batches = 0;
  while (engine.epoch() < kUpdates / 2) {
    const auto results = engine.run_batch(batch);
    for (const auto& r : results) ASSERT_TRUE(r.exact);
    ++batches;
  }
  updater.join();
  EXPECT_GT(batches, 0);

  auto fresh = VicinityOracle::build(g, opt);
  QueryContext fresh_ctx;
  const auto final_results = engine.run_batch(batch, 1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(final_results[i].dist,
              fresh.distance(batch[i].s, batch[i].t, fresh_ctx).dist);
  }
}

TEST(DynamicOracleLargeTest, FiftyThousandNodeStreamWithThousandUpdates) {
#ifdef VICINITY_SANITIZED
  GTEST_SKIP() << "throughput-scale stream; sanitizer jobs cover the medium "
                  "streams";
#else
  if (std::getenv("VICINITY_SKIP_LARGE_TESTS") != nullptr) {
    GTEST_SKIP() << "VICINITY_SKIP_LARGE_TESTS set";
  }
  util::Rng grng(1401);
  gen::RmatParams params;
  auto raw = gen::rmat(16, std::uint64_t{8} << 16, params, grng);
  auto g = graph::largest_component(raw).graph;
  ASSERT_GT(g.num_nodes(), 40'000u);

  OracleOptions opt = exact_options(1402);
  opt.alpha = 4.0;
  opt.build_threads = 0;
  auto oracle = VicinityOracle::build(g, opt);
  util::Rng rng(1403);
  QueryContext ctx;
  algo::BidirBfsScratch ref_scratch;

  for (int step = 0; step < 1000; ++step) {
    if (step % 2 == 0) {
      const auto [u, v] = random_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::remove(u, v));
    } else {
      const auto [u, v] = random_non_edge(g, rng);
      oracle.apply_update(g, GraphUpdate::insert(u, v));
    }
    for (int q = 0; q < 4; ++q) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const Distance ref =
          algo::bidirectional_bfs_distance(g, ref_scratch, s, t).dist;
      const QueryResult r = oracle.distance(s, t, ctx);
      ASSERT_EQ(r.dist, ref) << "step=" << step << " s=" << s << " t=" << t;
      ASSERT_TRUE(r.exact);
    }
    if (step % 250 == 0) {
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      expect_valid_path(g, s, t, oracle.path(s, t, ctx),
                        oracle.distance(s, t, ctx).dist);
    }
  }

  // Terminal deep check against a from-scratch rebuild.
  auto fresh = VicinityOracle::build(g, opt);
  QueryContext fresh_ctx;
  for (int q = 0; q < 2000; ++q) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    ASSERT_EQ(oracle.distance(s, t, ctx).dist,
              fresh.distance(s, t, fresh_ctx).dist);
  }
#endif
}

}  // namespace
}  // namespace vicinity::core
