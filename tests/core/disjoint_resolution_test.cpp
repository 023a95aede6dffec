// Disjoint-vicinity resolution: when Γ_out(s) and Γ_in(t) miss each other
// the oracle proves d(s,t) >= LB = r_out(s) + r_in(t) + 1 and answers from
// the index when one arc joins the two shells (kCrossingEdge, unweighted
// graphs) or a landmark upper bound meets the bound (kLandmarkCertificate:
// LB, or LB + 1 after an edge miss). Every such answer must equal
// BFS/Dijkstra ground truth, and every PATH must be a real path of the
// reported length, on RMAT, grid, weighted and directed graphs, under each
// Fallback, for build() and build_for(), after heap and mapped VCNIDX07
// opens (including one with corrupt nearest landmarks), and after an
// insert/delete stream. PATH must cover what DISTANCE covers: with full
// tables on an unweighted graph, every pair the index answers exactly gets
// its path from the index too, landmark endpoints and certified pairs
// walking trees derived from the landmark rows. Each case asserts a floor
// on how often each method fires, so none passes vacuously.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algo/path.h"
#include "core/index_format.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "graph/transform.h"
#include "test_support.h"
#include "util/rng.h"

namespace vicinity::core {
namespace {

/// How often each resolution of interest fired in one audit.
struct Tally {
  std::size_t certificate = 0;       ///< distance(): kLandmarkCertificate
  std::size_t crossing = 0;          ///< distance(): kCrossingEdge
  std::size_t searched = 0;          ///< distance(): kFallbackExact
  std::size_t path_certificate = 0;  ///< path(): chain plus tree walk
  std::size_t path_crossing = 0;     ///< path(): chains plus one arc
  std::size_t path_source = 0;       ///< path(): s's forward tree
  std::size_t path_target = 0;       ///< path(): t's reverse tree
};

graph::Graph rmat_graph(unsigned scale, bool directed, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RmatParams params;
  params.directed = directed;
  return graph::largest_component(
             gen::rmat(scale, std::uint64_t{4} << scale, params, rng))
      .graph;
}

OracleOptions options(Fallback fallback, std::uint64_t seed) {
  OracleOptions opt;
  opt.alpha = 1.0;  // small vicinities: about half of all pairs are disjoint
  opt.seed = seed;
  opt.fallback = fallback;
  return opt;
}

std::vector<NodeId> all_nodes(const graph::Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) nodes[u] = u;
  return nodes;
}

/// Queries `sources` x `targets` random pairs drawn from `nodes`, checking
/// distance() and path() against a full search from each source.
void audit(const graph::Graph& g, const VicinityOracle& oracle,
           std::span<const NodeId> nodes, std::uint64_t seed, Tally& tally,
           std::size_t sources = 40, std::size_t targets = 60) {
  util::Rng rng(seed);
  QueryContext ctx;
  const bool none = oracle.options().fallback == Fallback::kNone;
  const bool full_tables =
      oracle.tables().mode() == LandmarkTables::Mode::kFull;
  for (std::size_t i = 0; i < sources; ++i) {
    const NodeId s = nodes[rng.next_below(nodes.size())];
    const std::vector<Distance> truth =
        g.weighted() ? algo::dijkstra(g, s).dist : algo::bfs(g, s).dist;
    for (std::size_t j = 0; j < targets; ++j) {
      const NodeId t = nodes[rng.next_below(nodes.size())];
      const QueryResult r = oracle.distance(s, t, ctx);
      const std::string where = std::to_string(s) + "->" + std::to_string(t) +
                                " via " + to_string(r.method);
      if (r.method == QueryMethod::kLandmarkCertificate ||
          r.method == QueryMethod::kCrossingEdge) {
        ASSERT_TRUE(r.exact) << where;
      }
      // The search fallback is exact on weighted graphs too (bidirectional
      // Dijkstra), so every exact answer is held to ground truth.
      if (r.exact) {
        ASSERT_EQ(r.dist, truth[t]) << where;
      }
      // Under kNone every answer is an index answer: none may be wrong.
      if (none && r.method != QueryMethod::kNotFound) {
        ASSERT_TRUE(r.exact) << where;
      }
      if (g.weighted()) {
        ASSERT_NE(r.method, QueryMethod::kCrossingEdge) << where;
      }
      tally.certificate += r.method == QueryMethod::kLandmarkCertificate;
      tally.crossing += r.method == QueryMethod::kCrossingEdge;
      tally.searched += r.method == QueryMethod::kFallbackExact;

      const PathResult p = oracle.path(s, t, ctx);
      if (g.weighted()) {
        ASSERT_NE(p.method, QueryMethod::kCrossingEdge) << where;
      }
      // PATH covers what DISTANCE covers: a finite distance the index
      // answered exactly gets its path from the index, under any Fallback.
      const bool index_answer = r.exact && r.dist != kInfDistance &&
                                r.method != QueryMethod::kFallbackExact;
      if (index_answer && full_tables && !g.weighted()) {
        ASSERT_FALSE(p.path.empty()) << where;
        ASSERT_NE(p.method, QueryMethod::kFallbackExact) << where;
        ASSERT_EQ(p.dist, r.dist) << where;
      }
      if (p.path.empty()) {
        // Only unreachable pairs, or pairs left to a disabled search.
        if (p.exact) {
          ASSERT_EQ(truth[t], kInfDistance) << where;
        }
        continue;
      }
      ASSERT_TRUE(p.exact) << where;
      ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t))
          << where << " path via " << to_string(p.method);
      ASSERT_EQ(algo::path_length(g, p.path), p.dist) << where;
      ASSERT_EQ(p.dist, truth[t]) << where;
      tally.path_certificate += p.method == QueryMethod::kLandmarkCertificate;
      tally.path_crossing += p.method == QueryMethod::kCrossingEdge;
      tally.path_source += p.method == QueryMethod::kSourceIsLandmark;
      tally.path_target += p.method == QueryMethod::kTargetIsLandmark;
    }
  }
}

TEST(DisjointResolutionTest, RmatUnderEveryFallback) {
  const auto g = rmat_graph(11, /*directed=*/false, 1701);
  const auto nodes = all_nodes(g);
  for (const Fallback fallback :
       {Fallback::kNone, Fallback::kBidirectionalBfs,
        Fallback::kLandmarkEstimate}) {
    SCOPED_TRACE(static_cast<int>(fallback));
    const auto oracle = VicinityOracle::build(g, options(fallback, 1702));
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(audit(g, oracle, nodes, 1703, tally));
    EXPECT_GE(tally.certificate, 40u);
    EXPECT_GE(tally.crossing, 550u);
    EXPECT_GE(tally.path_crossing, 550u);
    EXPECT_GE(tally.path_certificate, 40u);
    EXPECT_GE(tally.path_source, 96u);
    EXPECT_GE(tally.path_target, 103u);
  }
}

TEST(DisjointResolutionTest, GridUnderEveryFallback) {
  const auto g = testing::grid_graph(40, 40);
  const auto nodes = all_nodes(g);
  for (const Fallback fallback :
       {Fallback::kNone, Fallback::kBidirectionalBfs,
        Fallback::kLandmarkEstimate}) {
    SCOPED_TRACE(static_cast<int>(fallback));
    const auto oracle = VicinityOracle::build(g, options(fallback, 1712));
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(audit(g, oracle, nodes, 1713, tally));
    EXPECT_GE(tally.certificate, 8u);
    EXPECT_GE(tally.crossing, 23u);
    EXPECT_GE(tally.path_crossing, 23u);
    EXPECT_GE(tally.path_certificate, 8u);
    EXPECT_GE(tally.path_source, 48u);
    EXPECT_GE(tally.path_target, 28u);
  }
}

TEST(DisjointResolutionTest, WeightedGraphsCertifyButNeverCrossEdges) {
  util::Rng wrng(1721);
  const auto g = graph::with_random_weights(
      rmat_graph(11, /*directed=*/false, 1722), wrng, 1, 4);
  const auto nodes = all_nodes(g);
  for (const Fallback fallback :
       {Fallback::kNone, Fallback::kBidirectionalBfs,
        Fallback::kLandmarkEstimate}) {
    SCOPED_TRACE(static_cast<int>(fallback));
    const auto oracle = VicinityOracle::build(g, options(fallback, 1723));
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(audit(g, oracle, nodes, 1724, tally));
    EXPECT_GE(tally.certificate, 400u);
    EXPECT_EQ(tally.crossing, 0u);
    EXPECT_EQ(tally.path_crossing, 0u);
    EXPECT_GE(tally.path_certificate, 400u);
    EXPECT_GE(tally.path_source, 240u);
    EXPECT_GE(tally.path_target, 102u);
    // The search answers exactly too: bidirectional Dijkstra, held to
    // Dijkstra by audit().
    if (fallback == Fallback::kBidirectionalBfs) {
      EXPECT_GE(tally.searched, 630u);
    }
  }
}

TEST(DisjointResolutionTest, DirectedRmatUnderEveryFallback) {
  const auto g = rmat_graph(11, /*directed=*/true, 1731);
  const auto nodes = all_nodes(g);
  for (const Fallback fallback :
       {Fallback::kNone, Fallback::kBidirectionalBfs,
        Fallback::kLandmarkEstimate}) {
    SCOPED_TRACE(static_cast<int>(fallback));
    const auto oracle = VicinityOracle::build(g, options(fallback, 1732));
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(audit(g, oracle, nodes, 1733, tally));
    EXPECT_GE(tally.certificate, 55u);
    EXPECT_GE(tally.crossing, 360u);
    EXPECT_GE(tally.path_crossing, 360u);
    EXPECT_GE(tally.path_certificate, 55u);
    EXPECT_GE(tally.path_source, 162u);
    EXPECT_GE(tally.path_target, 112u);
  }
}

TEST(DisjointResolutionTest, SubsetBuildsUseTheirTables) {
  // A sample smaller than the landmark set gets subset tables (rows only
  // for sampled nodes); a larger one gets full rows.
  const auto g = rmat_graph(11, /*directed=*/false, 1741);
  util::Rng rng(1742);
  for (const std::size_t sample_size : {24, 400}) {
    std::vector<NodeId> sample;
    for (std::size_t i = 0; i < sample_size; ++i) {
      sample.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
    }
    const auto oracle = VicinityOracle::build_for(
        g, options(Fallback::kNone, 1743), sample);
    const bool subset = sample_size == 24;
    ASSERT_EQ(oracle.tables().mode(), subset ? LandmarkTables::Mode::kSubset
                                             : LandmarkTables::Mode::kFull);
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(
        audit(g, oracle, oracle.indexed_nodes(), 1744, tally, 24, 60));
    EXPECT_GE(tally.certificate, 20u);
    EXPECT_GE(tally.crossing, 200u);
    EXPECT_GE(tally.path_crossing, 200u);
    // Subset tables hold no landmark rows to walk, so certified pairs
    // keep the search for PATH.
    if (subset) {
      EXPECT_EQ(tally.path_certificate, 0u);
    } else {
      EXPECT_GE(tally.path_certificate, 20u);
      EXPECT_GE(tally.path_source, 286u);
      EXPECT_GE(tally.path_target, 56u);
    }
  }
}

TEST(DisjointResolutionTest, HeapAndMappedOpensAnswerAlike) {
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    const auto g = rmat_graph(11, directed, 1751);
    const auto nodes = all_nodes(g);
    const auto built =
        VicinityOracle::build(g, options(Fallback::kBidirectionalBfs, 1752));
    const std::string path = ::testing::TempDir() + "/disjoint_" +
                             (directed ? "directed" : "undirected") + ".idx";
    save_oracle_file(built, path);
    for (const OpenMode mode : {OpenMode::kHeap, OpenMode::kMapped}) {
      OpenOptions open;
      open.mode = mode;
      const auto loaded = load_oracle_file(path, g, open);
      Tally tally;
      ASSERT_NO_FATAL_FAILURE(audit(g, loaded, nodes, 1753, tally));
      EXPECT_GE(tally.certificate, 25u);
      EXPECT_GE(tally.crossing, 400u);
      EXPECT_GE(tally.path_crossing, 400u);
      EXPECT_GE(tally.path_certificate, 25u);
      EXPECT_GE(tally.path_source, 96u);
      EXPECT_GE(tally.path_target, 101u);
      // Same resolutions as the built index, pair for pair.
      util::Rng rng(1754);
      QueryContext a;
      QueryContext b;
      for (int i = 0; i < 500; ++i) {
        const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const QueryResult want = built.distance(s, t, a);
        const QueryResult got = loaded.distance(s, t, b);
        ASSERT_EQ(got.dist, want.dist);
        ASSERT_EQ(got.method, want.method);
        ASSERT_EQ(got.hash_lookups, want.hash_lookups);
      }
    }
  }
}

TEST(DisjointResolutionTest, CorruptNearestLandmarksSkipTheCertificate) {
  // A default mapped open checks only that each stored ℓ(u) is below n or
  // the invalid sentinel. An ℓ that is no landmark must skip the landmark
  // bound (certificate and estimate alike) instead of throwing; the
  // crossing edge keeps answering, and every exact answer stays exact.
  const auto g = rmat_graph(10, /*directed=*/false, 1771);
  const auto built =
      VicinityOracle::build(g, options(Fallback::kLandmarkEstimate, 1772));
  NodeId plain = 0;
  while (built.landmarks().contains(plain)) ++plain;
  std::ostringstream out(std::ios::binary);
  save_oracle(built, out);
  std::string bytes = out.str();
  region::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  bool patched = false;
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    region::SectionEntry e;
    std::memcpy(&e, bytes.data() + region::kSectionTableOffset + i * sizeof(e),
                sizeof(e));
    if (e.id != static_cast<std::uint32_t>(
                    region::SectionId::kNearestOutLandmark)) {
      continue;
    }
    for (std::uint64_t u = 0; u < e.count; ++u) {
      const NodeId bad = u % 2 == 0 ? kInvalidNode : plain;
      std::memcpy(bytes.data() + e.offset + u * sizeof(NodeId), &bad,
                  sizeof(bad));
    }
    patched = true;
  }
  ASSERT_TRUE(patched);
  const std::string path =
      ::testing::TempDir() + "/disjoint_corrupt_nearest.idx";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = load_oracle_file(path, g);  // default: mapped
  util::Rng rng(1773);
  QueryContext ctx;
  std::size_t crossing = 0;
  for (int i = 0; i < 1500; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    QueryResult r;
    ASSERT_NO_THROW(r = loaded.distance(s, t, ctx)) << s << "->" << t;
    ASSERT_NE(r.method, QueryMethod::kLandmarkCertificate);
    if (r.exact) {
      ASSERT_EQ(r.dist, testing::ref_distance(g, s, t)) << s << "->" << t;
    }
    crossing += r.method == QueryMethod::kCrossingEdge;
    ASSERT_NO_THROW(loaded.path(s, t, ctx)) << s << "->" << t;
  }
  EXPECT_GE(crossing, 300u);
}

TEST(DisjointResolutionTest, CorruptLandmarkRowsNeverLoop) {
  // A default mapped open does not check the landmark rows, and PATH walks
  // trees derived from them. Each walk steps only along arcs of the graph
  // and stops after n steps, so on corrupt rows a landmark endpoint either
  // gets a real walk (of any length) or the index's runtime_error, and a
  // certified pair keeps the search; nothing loops or reads out of bounds.
  for (const bool directed : {false, true}) {
    const auto g = rmat_graph(10, directed, 1781);
    const auto built =
        VicinityOracle::build(g, options(Fallback::kBidirectionalBfs, 1782));
    std::ostringstream out(std::ios::binary);
    save_oracle(built, out);
    for (const bool zeros : {true, false}) {
      SCOPED_TRACE(std::string(directed ? "directed" : "undirected") +
                   (zeros ? " zero rows" : " random rows"));
      std::string bytes = out.str();
      region::FileHeader header;
      std::memcpy(&header, bytes.data(), sizeof(header));
      util::Rng noise(1783);
      for (std::uint32_t i = 0; i < header.section_count; ++i) {
        region::SectionEntry e;
        std::memcpy(&e,
                    bytes.data() + region::kSectionTableOffset + i * sizeof(e),
                    sizeof(e));
        using S = region::SectionId;
        if (e.id != static_cast<std::uint32_t>(S::kTableDistRows) &&
            e.id != static_cast<std::uint32_t>(S::kTableRevRows)) {
          continue;
        }
        // Rows are byte-wide on this graph; write each entry at the width
        // its section declares.
        for (std::uint64_t j = 0; j < e.count; ++j) {
          const auto d =
              zeros ? Distance{0} : static_cast<Distance>(noise.next_below(6));
          if (e.elem_size == 1) {
            bytes[e.offset + j] = static_cast<char>(d);
          } else {
            std::memcpy(bytes.data() + e.offset + j * sizeof(Distance), &d,
                        sizeof(d));
          }
        }
      }
      const std::string path = ::testing::TempDir() +
                               "/disjoint_corrupt_rows_" +
                               (directed ? "d" : "u") + (zeros ? "0" : "r") +
                               ".idx";
      {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      const auto loaded = load_oracle_file(path, g);  // default: mapped
      const auto& lms = loaded.landmarks().nodes;
      util::Rng rng(1784);
      QueryContext ctx;
      std::size_t refused = 0;
      for (int i = 0; i < 900; ++i) {
        auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (i % 3 == 1) s = lms[rng.next_below(lms.size())];
        if (i % 3 == 2) t = lms[rng.next_below(lms.size())];
        ASSERT_NO_THROW(loaded.distance(s, t, ctx)) << s << "->" << t;
        PathResult p;
        try {
          p = loaded.path(s, t, ctx);
        } catch (const std::runtime_error&) {
          ASSERT_TRUE(loaded.landmarks().contains(s) ||
                      loaded.landmarks().contains(t))
              << s << "->" << t;
          ++refused;
          continue;
        }
        if (!p.path.empty()) {
          ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t))
              << s << "->" << t << " via " << to_string(p.method);
        }
      }
      EXPECT_GT(refused, zeros ? 400u : 0u);
      std::filesystem::remove(path);
    }
  }
}

TEST(DisjointResolutionTest, ExactAfterAnUpdateStream) {
  struct Case {
    const char* name;
    bool directed;
    bool weighted;
  };
  for (const Case& c : {Case{"undirected", false, false},
                        Case{"weighted", false, true},
                        Case{"directed", true, false}}) {
    SCOPED_TRACE(c.name);
    util::Rng wrng(1761);
    graph::Graph g = rmat_graph(11, c.directed, 1762);
    if (c.weighted) g = graph::with_random_weights(g, wrng, 1, 4);
    auto oracle =
        VicinityOracle::build(g, options(Fallback::kBidirectionalBfs, 1763));
    // Alternate inserts of random non-edges and deletes of random edges.
    util::Rng rng(1764);
    for (int i = 0; i < 80; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (i % 2 == 0) {
        const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        if (u == v || g.has_edge(u, v)) continue;
        oracle.apply_update(
            g, GraphUpdate::insert(u, v, c.weighted ? 1 + i % 4 : 1));
      } else if (g.degree(u) > 1) {
        const NodeId v = g.neighbors(u)[rng.next_below(g.degree(u))];
        oracle.apply_update(g, GraphUpdate::remove(u, v));
      }
    }
    Tally tally;
    ASSERT_NO_FATAL_FAILURE(audit(g, oracle, all_nodes(g), 1765, tally));
    EXPECT_GE(tally.certificate, 50u);
    EXPECT_GE(tally.path_certificate, 50u);
    EXPECT_GE(tally.path_source, 153u);
    EXPECT_GE(tally.path_target, 79u);
    if (c.weighted) {
      EXPECT_EQ(tally.crossing, 0u);
      EXPECT_GE(tally.searched, 681u);
    } else {
      EXPECT_GE(tally.crossing, 300u);
      EXPECT_GE(tally.path_crossing, 300u);
    }
  }
}

}  // namespace
}  // namespace vicinity::core
