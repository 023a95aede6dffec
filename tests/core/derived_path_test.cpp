// Derived vicinity parents: the index stores no parent pointers, and each
// step of a vicinity walk is derived at PATH time from the members' stored
// distances and the current graph (VicinityStore::walk_tree). Every PATH
// the index answers must be a real path whose length equals BFS/Dijkstra,
// for each resolution method (t ∈ Γ(s), s ∈ Γ(t), intersection, crossing
// edge, certificate, landmark endpoints), on undirected, directed and
// weighted graphs, through heap and mapped opens, after a seeded
// insert/delete stream and over concurrent per-thread contexts. The path
// does not depend on the open mode. On a mapped index whose member or
// distance bytes are garbage, PATH returns a real walk, the search or the
// index's runtime_error, and never loops or reads out of range.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/bfs.h"
#include "algo/dijkstra.h"
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

graph::Graph rmat_graph(unsigned scale, bool directed, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RmatParams params;
  params.directed = directed;
  return graph::largest_component(
             gen::rmat(scale, std::uint64_t{4} << scale, params, rng))
      .graph;
}

/// An undirected RMAT LCC, a directed one, and the undirected one with
/// weights 1-4.
std::vector<std::pair<std::string, graph::Graph>> graph_kinds() {
  std::vector<std::pair<std::string, graph::Graph>> out;
  out.emplace_back("undirected", rmat_graph(9, false, 2501));
  out.emplace_back("directed", rmat_graph(9, true, 2502));
  util::Rng wrng(2503);
  out.emplace_back("weighted",
                   graph::with_random_weights(out[0].second, wrng, 1, 4));
  return out;
}

OracleOptions options(std::uint64_t seed) {
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = seed;
  opt.fallback = Fallback::kBidirectionalBfs;
  opt.build_threads = 1;
  return opt;
}

std::vector<Distance> reference_row(const graph::Graph& g, NodeId s) {
  return g.weighted() ? algo::dijkstra(g, s).dist : algo::bfs(g, s).dist;
}

/// Writes `bytes` to a per-test temp file and returns its path.
std::string write_temp(const std::string& bytes, const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/derived_path_" +
                           info->name() + "_" + tag + ".idx";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string saved(const VicinityOracle& o) {
  std::ostringstream out(std::ios::binary);
  save_oracle(o, out);
  return out.str();
}

using Tally = std::map<QueryMethod, std::size_t>;

/// One PATH answer against the reference distance: exact, of that length,
/// and a real s..t path (empty exactly when t is unreachable).
void check_path(const graph::Graph& g, const PathResult& p, NodeId s, NodeId t,
                Distance want, Tally& tally) {
  ASSERT_TRUE(p.exact) << s << "->" << t;
  ASSERT_EQ(p.dist, want) << s << "->" << t;
  if (want == kInfDistance) {
    ASSERT_TRUE(p.path.empty()) << s << "->" << t;
    return;
  }
  ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t)) << s << "->" << t;
  ASSERT_EQ(algo::path_length(g, p.path), want) << s << "->" << t;
  ++tally[p.method];
}

/// Every target from each of `sources`, through every oracle of `oracles`,
/// which must also return the same path.
void check_sources(const graph::Graph& g,
                   const std::vector<const VicinityOracle*>& oracles,
                   const std::vector<NodeId>& sources, Tally& tally) {
  std::vector<QueryContext> ctx(oracles.size());
  for (const NodeId s : sources) {
    const std::vector<Distance> want = reference_row(g, s);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const PathResult first = oracles[0]->path(s, t, ctx[0]);
      ASSERT_NO_FATAL_FAILURE(check_path(g, first, s, t, want[t], tally));
      for (std::size_t i = 1; i < oracles.size(); ++i) {
        const PathResult p = oracles[i]->path(s, t, ctx[i]);
        ASSERT_EQ(p.method, first.method) << s << "->" << t;
        ASSERT_EQ(p.path, first.path) << s << "->" << t;
      }
    }
  }
}

std::vector<NodeId> sample_nodes(const graph::Graph& g, std::size_t count,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  return out;
}

TEST(DerivedPathOracleTest, EveryIndexPathIsShortestOnEachGraphKind) {
  // Built, mapped and heap opens of one index answer every pair from 40
  // sources with the same path, of the BFS/Dijkstra length, and each
  // vicinity method answers some of them.
  for (const auto& [name, g] : graph_kinds()) {
    SCOPED_TRACE(name);
    const auto built = VicinityOracle::build(g, options(2511));
    const std::string path = write_temp(saved(built), name);
    const auto mapped = load_oracle_file(path, g);
    OpenOptions heap_opts;
    heap_opts.mode = OpenMode::kHeap;
    const auto heap = load_oracle_file(path, g, heap_opts);
    ASSERT_TRUE(mapped.store().mapped());
    Tally tally;
    check_sources(g, {&built, &mapped, &heap}, sample_nodes(g, 40, 2512),
                  tally);
    EXPECT_GT(tally[QueryMethod::kTargetInSourceVicinity], 0u);
    EXPECT_GT(tally[QueryMethod::kSourceInTargetVicinity], 0u);
    EXPECT_GT(tally[QueryMethod::kVicinityIntersection], 0u);
    EXPECT_GT(tally[QueryMethod::kSourceIsLandmark] +
                  tally[QueryMethod::kTargetIsLandmark],
              0u);
    if (!g.weighted()) {
      EXPECT_GT(tally[QueryMethod::kCrossingEdge], 0u);
      // Unweighted vicinity walks never leave the vicinity.
      EXPECT_EQ(tally[QueryMethod::kFallbackExact], 0u);
    }
    EXPECT_GT(tally[QueryMethod::kLandmarkCertificate], 0u);
    std::filesystem::remove(path);
  }
}

TEST(DerivedPathOracleTest, PathsStayShortestAfterUpdateStream) {
  // A seeded stream of deletes and inserts, applied to a built oracle and
  // to mapped and heap opens of its file (each on its own graph copy):
  // every 10 updates, paths from 12 sources must still be shortest on the
  // current graph, and the three must keep returning the same path.
  for (const auto& [name, base] : graph_kinds()) {
    SCOPED_TRACE(name);
    graph::Graph g_built = base;
    graph::Graph g_mapped = base;
    graph::Graph g_heap = base;
    auto built = VicinityOracle::build(g_built, options(2521));
    const std::string path = write_temp(saved(built), name);
    auto mapped = load_oracle_file(path, g_mapped);
    OpenOptions heap_opts;
    heap_opts.mode = OpenMode::kHeap;
    auto heap = load_oracle_file(path, g_heap, heap_opts);
    util::Rng rng(2522);
    Tally tally;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 10; ++i) {
        GraphUpdate u;
        if (i % 2 == 0) {
          // Delete an arc out of a random node that has one.
          NodeId a = static_cast<NodeId>(rng.next_below(g_built.num_nodes()));
          while (g_built.neighbors(a).empty()) {
            a = static_cast<NodeId>(rng.next_below(g_built.num_nodes()));
          }
          const auto nbrs = g_built.neighbors(a);
          u = GraphUpdate::remove(a, nbrs[rng.next_below(nbrs.size())]);
        } else {
          NodeId a = 0;
          NodeId b = 0;
          do {
            a = static_cast<NodeId>(rng.next_below(g_built.num_nodes()));
            b = static_cast<NodeId>(rng.next_below(g_built.num_nodes()));
          } while (a == b || g_built.has_edge(a, b));
          const Weight w =
              g_built.weighted() ? static_cast<Weight>(1 + rng.next_below(4))
                                 : Weight{1};
          u = GraphUpdate::insert(a, b, w);
        }
        built.apply_update(g_built, u);
        mapped.apply_update(g_mapped, u);
        heap.apply_update(g_heap, u);
      }
      check_sources(g_built, {&built}, sample_nodes(g_built, 12, 2523 + round),
                    tally);
      // The other two answer on their own (identical) graph copies.
      QueryContext cb, cm, ch;
      for (const NodeId s : sample_nodes(g_built, 12, 2523 + round)) {
        for (NodeId t = 0; t < g_built.num_nodes(); ++t) {
          const PathResult want = built.path(s, t, cb);
          ASSERT_EQ(mapped.path(s, t, cm).path, want.path) << s << "->" << t;
          ASSERT_EQ(heap.path(s, t, ch).path, want.path) << s << "->" << t;
        }
      }
    }
    EXPECT_GT(tally[QueryMethod::kVicinityIntersection], 0u);
    EXPECT_GT(tally[QueryMethod::kTargetInSourceVicinity], 0u);
    std::filesystem::remove(path);
  }
}

/// Overwrites every vicinity member and/or distance section of `bytes` with
/// noise: member ids up to 2n (half of them out of range), distance
/// entries at the section's width.
std::string with_garbage_arena(std::string bytes, NodeId n, bool members,
                               bool dists, std::uint64_t seed) {
  using S = region::SectionId;
  region::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  util::Rng noise(seed);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    region::SectionEntry e;
    std::memcpy(&e, bytes.data() + region::kSectionTableOffset + i * sizeof(e),
                sizeof(e));
    const bool is_members =
        e.id == static_cast<std::uint32_t>(S::kOutStoreMembers) ||
        e.id == static_cast<std::uint32_t>(S::kInStoreMembers);
    const bool is_dists =
        e.id == static_cast<std::uint32_t>(S::kOutStoreDists) ||
        e.id == static_cast<std::uint32_t>(S::kInStoreDists);
    if (!(members && is_members) && !(dists && is_dists)) continue;
    for (std::uint64_t j = 0; j < e.count; ++j) {
      char* at = bytes.data() + e.offset + j * e.elem_size;
      if (is_members) {
        const auto v = static_cast<NodeId>(noise.next_below(2 * n));
        std::memcpy(at, &v, sizeof(v));
      } else if (e.elem_size == 1) {
        *at = static_cast<char>(noise.next_below(256));
      } else {
        const auto d = static_cast<Distance>(noise.next_below(16));
        std::memcpy(at, &d, sizeof(d));
      }
    }
  }
  return bytes;
}

TEST(DerivedPathOracleTest, GarbageArenaBytesNeverLoop) {
  // A default mapped open does not check the arena. With member or
  // distance bytes replaced by noise, PATH must return a real s..t walk
  // (every hop an arc), the search's exact path or the index's
  // runtime_error; it must never loop or read out of range (this binary
  // runs under ASan/UBSan in CI).
  for (const auto& [name, g] : graph_kinds()) {
    const auto built = VicinityOracle::build(g, options(2531));
    const std::string clean = saved(built);
    for (const auto& [members, dists] :
         {std::pair{true, false}, std::pair{false, true},
          std::pair{true, true}}) {
      const std::string label = name + (members ? " members" : "") +
                                (dists ? " dists" : "");
      SCOPED_TRACE(label);
      const std::string path = write_temp(
          with_garbage_arena(clean, g.num_nodes(), members, dists, 2532),
          std::to_string(members) + std::to_string(dists) + name);
      const auto loaded = load_oracle_file(path, g);  // default: mapped
      util::Rng rng(2533);
      QueryContext ctx;
      std::size_t searched = 0;
      for (int i = 0; i < 800; ++i) {
        const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        ASSERT_NO_THROW((void)loaded.distance(s, t, ctx)) << s << "->" << t;
        PathResult p;
        try {
          p = loaded.path(s, t, ctx);
        } catch (const std::runtime_error&) {
          continue;
        }
        if (!p.path.empty()) {
          ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t)) << s << "->" << t;
        }
        if (p.method == QueryMethod::kFallbackExact) {
          ++searched;
          ASSERT_EQ(p.dist, testing::ref_distance(g, s, t)) << s << "->" << t;
        }
      }
      EXPECT_GT(searched, 0u);
      std::filesystem::remove(path);
    }
  }
}

TEST(DerivedPathOracleTest, ConcurrentContextsMatchOneThread) {
  // Four threads share one mapped oracle, each with its own context, and
  // derive the same paths as a single thread; each is a shortest path.
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    const auto g = rmat_graph(9, directed, 2541);
    const auto built = VicinityOracle::build(g, options(2542));
    const std::string path =
        write_temp(saved(built), directed ? "directed" : "undirected");
    const auto mapped = load_oracle_file(path, g);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    util::Rng rng(2543);
    for (int i = 0; i < 2000; ++i) {
      pairs.emplace_back(static_cast<NodeId>(rng.next_below(g.num_nodes())),
                         static_cast<NodeId>(rng.next_below(g.num_nodes())));
    }
    std::vector<std::vector<NodeId>> want;
    QueryContext ctx;
    for (const auto& [s, t] : pairs) {
      want.push_back(mapped.path(s, t, ctx).path);
    }
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<std::vector<NodeId>>> got(kThreads);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        QueryContext local;
        // Each thread starts at a different offset into the pairs.
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const auto& [s, t] = pairs[(i + w * 500) % pairs.size()];
          got[w].push_back(mapped.path(s, t, local).path);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (unsigned w = 0; w < kThreads; ++w) {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t k = (i + w * 500) % pairs.size();
        ASSERT_EQ(got[w][i], want[k]) << "thread " << w << " pair " << k;
      }
    }
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const auto& [s, t] = pairs[k];
      const Distance d = testing::ref_distance(g, s, t);
      if (d == kInfDistance) {
        ASSERT_TRUE(want[k].empty()) << s << "->" << t;
        continue;
      }
      ASSERT_TRUE(algo::is_valid_path(g, want[k], s, t)) << s << "->" << t;
      ASSERT_EQ(algo::path_length(g, want[k]), d) << s << "->" << t;
    }
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace vicinity::core
