// Backward-compatibility goldens + open-mode equivalence.
//
// The stream fixtures under tests/data/golden/ were produced by the retired
// VCNIDX02-04 writer (see tests/data/golden/README.md for the exact
// generation parameters) and pin the legacy stream decode paths: the
// loaders refuse them, and upgrade_index() must convert each into the
// VCNIDX05 bytes of the same index. The packed_v05_*_noparents fixtures
// pin the region writer byte for byte; the other two packed_v05_* fixtures
// carry the landmark parent rows an older writer emitted and pin that such
// files still open and answer alike. The second half of the suite proves
// the two v5 open modes — zero-copy mmap and owned heap buffers — are
// observationally indistinguishable, including after COW-triggering
// updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/path.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "test_support.h"
#include "vicinity_index.h"

namespace vicinity::core {
namespace {

std::string golden(const char* name) {
  return std::string(VICINITY_TEST_DATA_DIR) + "/golden/" + name;
}

/// Asserts two oracles over the same graph produce bit-identical answer
/// streams: distance, resolution method, look-up count, and the exact path
/// vertex sequence.
void expect_identical(const VicinityOracle& a, const VicinityOracle& b,
                      const graph::Graph& g, std::uint64_t seed, int pairs) {
  QueryContext ca, cb;
  util::Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto ra = a.distance(s, t, ca);
    const auto rb = b.distance(s, t, cb);
    ASSERT_EQ(ra.dist, rb.dist) << s << "->" << t;
    ASSERT_EQ(ra.method, rb.method) << s << "->" << t;
    ASSERT_EQ(ra.hash_lookups, rb.hash_lookups) << s << "->" << t;
    const auto pa = a.path(s, t, ca);
    const auto pb = b.path(s, t, cb);
    ASSERT_EQ(pa.dist, pb.dist) << s << "->" << t;
    ASSERT_EQ(pa.method, pb.method) << s << "->" << t;
    ASSERT_EQ(pa.path, pb.path) << s << "->" << t;
  }
}

void expect_matches_reference(const VicinityOracle& oracle,
                              const graph::Graph& g, std::uint64_t seed,
                              int pairs) {
  QueryContext ctx;
  util::Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    ASSERT_EQ(oracle.distance(s, t, ctx).dist, testing::ref_distance(g, s, t))
        << s << "->" << t;
  }
}

/// Landmark-endpoint PATH: from and to every landmark, for every 5th node,
/// a walk of the landmark's tree derived from its row must be a valid path
/// of BFS length (and empty exactly when the pair is unreachable).
void expect_landmark_paths(const VicinityOracle& oracle,
                           const graph::Graph& g) {
  QueryContext ctx;
  std::size_t walked = 0;
  for (const NodeId l : oracle.landmarks().nodes) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      if (v == l) continue;
      for (const bool from_l : {true, false}) {
        const NodeId s = from_l ? l : v;
        const NodeId t = from_l ? v : l;
        const PathResult p = oracle.path(s, t, ctx);
        ASSERT_EQ(p.method, oracle.landmarks().contains(s)
                                ? QueryMethod::kSourceIsLandmark
                                : QueryMethod::kTargetIsLandmark)
            << s << "->" << t;
        ASSERT_TRUE(p.exact) << s << "->" << t;
        const Distance want = testing::ref_distance(g, s, t);
        ASSERT_EQ(p.dist, want) << s << "->" << t;
        if (want == kInfDistance) {
          ASSERT_TRUE(p.path.empty()) << s << "->" << t;
          continue;
        }
        ASSERT_TRUE(algo::is_valid_path(g, p.path, s, t)) << s << "->" << t;
        ASSERT_EQ(p.path.size(), want + 1) << s << "->" << t;
        ++walked;
      }
    }
  }
  EXPECT_GT(walked, 0u);
}

/// Reads a whole file as bytes.
std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

/// upgrade_index() over a stream golden: the VCNIDX05 bytes it writes.
std::string upgraded(const char* name, const graph::Graph& g) {
  std::ifstream in(golden(name), std::ios::binary);
  std::ostringstream out(std::ios::binary);
  upgrade_index(in, g, out);
  return out.str();
}

/// Writes VCNIDX05 bytes to `tmp` and opens it mapped; the caller removes
/// the file.
VicinityOracle open_mapped(const std::string& bytes, const graph::Graph& g,
                           const std::filesystem::path& tmp) {
  std::ofstream(tmp, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return load_oracle_file(tmp.string(), g);
}

TEST(GoldenCompatTest, FlatGoldensAcrossVersionsAnswerIdentically) {
  // The three flat goldens share one body (the hash-backend layout never
  // changed between VCNIDX02 and 04). Upgrading each through its version's
  // decode path must write the very bytes a fresh build of the recorded
  // graph and options writes: the retired hash layout converts into a
  // fully packed store that maps and answers BFS-exactly.
  const auto g = testing::random_connected(140, 460, 9101);
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 9102;
  opt.fallback = Fallback::kBidirectionalBfs;
  std::ostringstream fresh(std::ios::binary);
  save_oracle(VicinityOracle::build(g, opt), fresh);
  for (const char* name : {"flat_v04_undirected.idx", "flat_v03_undirected.idx",
                           "flat_v02_undirected.idx"}) {
    EXPECT_TRUE(upgraded(name, g) == fresh.str())
        << name << " does not upgrade to the fresh build's bytes";
  }

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_flat_roundtrip.idx";
  const auto mapped =
      open_mapped(upgraded("flat_v02_undirected.idx", g), g, tmp);
  EXPECT_EQ(mapped.options().backend, StoreBackend::kPacked);
  EXPECT_TRUE(mapped.store().mapped());
  expect_matches_reference(mapped, g, 9105, 80);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, PackedV04GoldenLoadsAndSurvivesV5RoundTrip) {
  // A packed VCNIDX04 stream decodes through the legacy blob reader and
  // upgrades to exactly the VCNIDX05 golden of the same index. The stream
  // carries landmark parent rows; the reader checks and drops them, so the
  // upgrade equals the golden written without them. It maps with BFS-exact
  // answers and landmark-endpoint paths.
  const auto g = testing::random_connected(140, 460, 9111);
  const std::string bytes = upgraded("packed_v04_undirected.idx", g);
  EXPECT_TRUE(bytes ==
              file_bytes(golden("packed_v05_undirected_noparents.idx")))
      << "packed_v04_undirected.idx does not upgrade to the v5 golden";

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_roundtrip.idx";
  const auto mapped = open_mapped(bytes, g, tmp);
  EXPECT_TRUE(mapped.store().mapped());
  expect_matches_reference(mapped, g, 9113, 80);
  expect_landmark_paths(mapped, g);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, PackedV04DirectedGoldenLoadsAndSurvivesV5RoundTrip) {
  // This fixture was written without landmark parents, so it upgrades to
  // the directed v5 golden written without them, byte for byte.
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const std::string bytes = upgraded("packed_v04_directed.idx", g);
  EXPECT_TRUE(bytes ==
              file_bytes(golden("packed_v05_directed_noparents.idx")))
      << "packed_v04_directed.idx does not upgrade to the v5 golden";

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_roundtrip_dir.idx";
  const auto mapped = open_mapped(bytes, g, tmp);
  EXPECT_TRUE(mapped.store().mapped());
  EXPECT_TRUE(mapped.store(Direction::kIn).mapped());
  expect_matches_reference(mapped, g, 9123, 80);
  expect_landmark_paths(mapped, g);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, FlatV04DirectedGoldenLoadsAndSurvivesV5RoundTrip) {
  // The directed hash-body stream: out- and in-vicinity records interleave
  // per slot, a layout no other fixture pins. Both stores convert fully
  // packed, the reader drops the stream's landmark parent rows, and the
  // upgrade is exactly the VCNIDX05 golden of the same index written
  // without them.
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const std::string bytes = upgraded("flat_v04_directed.idx", g);
  EXPECT_TRUE(bytes ==
              file_bytes(golden("packed_v05_directed_noparents.idx")))
      << "flat_v04_directed.idx does not upgrade to the v5 golden";

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_flat_roundtrip_dir.idx";
  const auto mapped = open_mapped(bytes, g, tmp);
  EXPECT_TRUE(mapped.store().mapped());
  EXPECT_TRUE(mapped.store(Direction::kIn).mapped());
  expect_matches_reference(mapped, g, 9125, 120);
  std::filesystem::remove(tmp);
}

/// A stream golden with the graph it was built on.
struct StreamGolden {
  const char* name;
  int version;
  graph::Graph g;
};

std::vector<StreamGolden> stream_goldens() {
  std::vector<StreamGolden> out;
  for (const auto& [name, version] :
       {std::pair{"flat_v02_undirected.idx", 2},
        std::pair{"flat_v03_undirected.idx", 3},
        std::pair{"flat_v04_undirected.idx", 4}}) {
    out.push_back({name, version, testing::random_connected(140, 460, 9101)});
  }
  out.push_back({"packed_v04_undirected.idx", 4,
                 testing::random_connected(140, 460, 9111)});
  for (const char* name :
       {"packed_v04_directed.idx", "flat_v04_directed.idx"}) {
    out.push_back(
        {name, 4, testing::random_connected_directed(160, 1100, 9121)});
  }
  return out;
}

/// `load` must throw a runtime_error naming the file's version and the
/// upgrade command.
template <typename Load>
void expect_upgrade_hint(Load load, int version, const std::string& label) {
  try {
    load();
    ADD_FAILURE() << label << ": legacy file loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version " + std::to_string(version)),
              std::string::npos)
        << label << ": " << what;
    EXPECT_NE(what.find("vicinity_cli index upgrade"), std::string::npos)
        << label << ": " << what;
  }
}

TEST(GoldenCompatTest, StreamGoldensAreRefusedWithTheUpgradeHint) {
  // The loaders open only VCNIDX05. Each refuses a stream golden on its
  // version digits, before the tag or the graph shape: against the wrong
  // graph the error is still the upgrade hint. inspect_index_file reports
  // the file as a legacy container.
  const auto wrong = testing::karate_club();
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  for (const StreamGolden& s : stream_goldens()) {
    const std::string path = golden(s.name);
    for (const graph::Graph* g : {&s.g, &wrong}) {
      const std::string label = s.name;
      expect_upgrade_hint(
          [&] {
            std::ifstream in(path, std::ios::binary);
            (void)load_oracle(in, *g);
          },
          s.version, label + " load_oracle");
      expect_upgrade_hint([&] { (void)load_oracle_file(path, *g); },
                          s.version, label + " mapped");
      expect_upgrade_hint(
          [&] { (void)load_oracle_file(path, *g, heap_opts); }, s.version,
          label + " heap");
      expect_upgrade_hint([&] { (void)Index::open(path, *g); }, s.version,
                          label + " Index::open");
    }
    const IndexFileInfo info = inspect_index_file(path);
    EXPECT_EQ(info.version, s.version) << s.name;
    EXPECT_FALSE(info.mappable) << s.name;
    EXPECT_EQ(info.backend,
              s.g.directed() ? "vicinity-directed" : "vicinity")
        << s.name;
    EXPECT_TRUE(info.sections.empty()) << s.name;
  }
}

TEST(GoldenCompatTest, UpgradeRefusesCurrentVersionAndWrongGraph) {
  // upgrade_index only converts legacy files: a VCNIDX05 input is refused
  // before anything is written, and a legacy file keeps its graph-shape
  // and backend checks.
  const auto g = testing::random_connected(140, 460, 9111);
  std::ostringstream out(std::ios::binary);
  try {
    std::ifstream in(golden("packed_v05_undirected.idx"), std::ios::binary);
    upgrade_index(in, g, out);
    FAIL() << "a VCNIDX05 file was upgraded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("already current"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(out.str().empty());
  EXPECT_THROW((void)upgraded("flat_v04_undirected.idx",
                              testing::random_connected(141, 460, 9101)),
               std::runtime_error);
  EXPECT_THROW((void)upgraded("flat_v04_directed.idx", g),
               std::runtime_error);
}

TEST(GoldenCompatTest, InspectReportsTheV5GoldenHeaders) {
  struct Expect {
    const char* name;
    graph::Graph g;
    std::size_t sections;
  };
  // The *_noparents goldens lack only table_parent_rows.
  const Expect cases[] = {
      {"packed_v05_undirected.idx", testing::random_connected(140, 460, 9111),
       14},
      {"packed_v05_directed.idx",
       testing::random_connected_directed(160, 1100, 9121), 24},
      {"packed_v05_undirected_noparents.idx",
       testing::random_connected(140, 460, 9111), 13},
      {"packed_v05_directed_noparents.idx",
       testing::random_connected_directed(160, 1100, 9121), 23},
  };
  for (const Expect& c : cases) {
    const std::string path = golden(c.name);
    const IndexFileInfo info = inspect_index_file(path);
    EXPECT_EQ(info.version, 5) << c.name;
    EXPECT_TRUE(info.mappable) << c.name;
    EXPECT_EQ(info.backend,
              c.g.directed() ? "vicinity-directed" : "vicinity")
        << c.name;
    EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path)) << c.name;
    EXPECT_EQ(info.num_nodes, c.g.num_nodes()) << c.name;
    EXPECT_EQ(info.num_arcs, c.g.num_arcs()) << c.name;
    EXPECT_EQ(info.directed, c.g.directed()) << c.name;
    EXPECT_FALSE(info.weighted) << c.name;
    EXPECT_DOUBLE_EQ(info.alpha, 3.0) << c.name;
    EXPECT_EQ(info.store_backend, "packed") << c.name;
    EXPECT_EQ(info.table_mode, "full") << c.name;
    EXPECT_EQ(info.sections.size(), c.sections) << c.name;
  }
}

TEST(GoldenCompatTest, PackedV05GoldensOpenBothWaysAndMatchTheWriter) {
  // The packed_v05_* fixtures carry the table_parent_rows section an older
  // writer emitted; the loaders ignore it. Each must open mapped and on
  // the heap with BFS-exact answers and landmark-endpoint paths walked
  // from derived trees, answering exactly like its *_noparents twin. Fresh
  // builds of the recorded graph and options at build_threads 1 and 4 must
  // serialize to the twin's bytes (the parallel build is deterministic).
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.fallback = Fallback::kBidirectionalBfs;
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  struct Case {
    const char* name;
    const char* twin;
    graph::Graph g;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"packed_v05_undirected.idx", "packed_v05_undirected_noparents.idx",
       testing::random_connected(140, 460, 9111), 9112},
      {"packed_v05_directed.idx", "packed_v05_directed_noparents.idx",
       testing::random_connected_directed(160, 1100, 9121), 9122},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto mapped = load_oracle_file(golden(c.name), c.g);
    const auto heap = load_oracle_file(golden(c.name), c.g, heap_opts);
    const auto twin = load_oracle_file(golden(c.twin), c.g);
    EXPECT_TRUE(mapped.store().mapped());
    EXPECT_FALSE(heap.store().mapped());
    expect_matches_reference(mapped, c.g, c.seed + 3, 80);
    expect_identical(mapped, heap, c.g, c.seed + 4, 80);
    expect_identical(mapped, twin, c.g, c.seed + 5, 80);
    expect_landmark_paths(mapped, c.g);
    expect_landmark_paths(heap, c.g);
    opt.seed = c.seed;
    for (const unsigned threads : {1u, 4u}) {
      opt.build_threads = threads;
      std::ostringstream out(std::ios::binary);
      save_oracle(VicinityOracle::build(c.g, opt), out);
      EXPECT_TRUE(out.str() == file_bytes(golden(c.twin)))
          << "fresh build (build_threads " << threads << ") differs from "
          << c.twin;
    }
  }
}

TEST(GoldenCompatTest, MappedAndHeapOpensAreBitIdentical) {
  // The tentpole contract: a zero-copy mmap open and a full heap
  // deserialize of the same VCNIDX05 file must be observationally
  // indistinguishable — same distances, methods, look-up counts and paths
  // — including after updates force the mapped store to copy-on-write.
  auto g_mapped = testing::random_connected(300, 1000, 4501);
  auto g_heap = testing::random_connected(300, 1000, 4501);
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 4502;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto built = VicinityOracle::build(g_mapped, opt);
  const auto tmp =
      std::filesystem::temp_directory_path() / "vicinity_open_modes.idx";
  save_oracle_file(built, tmp.string());

  auto mapped = load_oracle_file(tmp.string(), g_mapped);
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  auto heap = load_oracle_file(tmp.string(), g_heap, heap_opts);
  EXPECT_TRUE(mapped.store().mapped());
  EXPECT_FALSE(heap.store().mapped());
  expect_identical(mapped, heap, g_mapped, 4503, 150);

  // A mapped open with up-front deep validation must also accept the file.
  OpenOptions verify_opts;
  verify_opts.mode = OpenMode::kMapped;
  verify_opts.verify = true;
  const auto verified = load_oracle_file(tmp.string(), g_mapped, verify_opts);
  expect_identical(mapped, verified, g_mapped, 4504, 40);

  // Same edge mutation on both sides: the mapped store stages COW copies
  // of the touched slots, the heap store mutates in place — the answer
  // streams must stay identical.
  const NodeId u = 0;
  ASSERT_FALSE(g_mapped.neighbors(u).empty());
  const NodeId v = g_mapped.neighbors(u)[0];
  mapped.apply_update(g_mapped, GraphUpdate::remove(u, v));
  heap.apply_update(g_heap, GraphUpdate::remove(u, v));
  expect_identical(mapped, heap, g_mapped, 4505, 150);

  mapped.apply_update(g_mapped, GraphUpdate::insert(u, v));
  heap.apply_update(g_heap, GraphUpdate::insert(u, v));
  expect_identical(mapped, heap, g_mapped, 4506, 150);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, MappedAndHeapOpensAreBitIdenticalDirected) {
  auto g_mapped = testing::random_connected_directed(220, 1500, 4601);
  auto g_heap = testing::random_connected_directed(220, 1500, 4601);
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 4602;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto built = VicinityOracle::build(g_mapped, opt);
  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_open_modes_dir.idx";
  save_oracle_file(built, tmp.string());

  auto mapped = load_oracle_file(tmp.string(), g_mapped);
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  auto heap = load_oracle_file(tmp.string(), g_heap, heap_opts);
  expect_identical(mapped, heap, g_mapped, 4603, 120);

  const NodeId u = 0;
  ASSERT_FALSE(g_mapped.neighbors(u).empty());
  const NodeId v = g_mapped.neighbors(u)[0];
  mapped.apply_update(g_mapped, GraphUpdate::remove(u, v));
  heap.apply_update(g_heap, GraphUpdate::remove(u, v));
  expect_identical(mapped, heap, g_mapped, 4604, 120);
  std::filesystem::remove(tmp);
}

}  // namespace
}  // namespace vicinity::core
