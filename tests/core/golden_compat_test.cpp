// Backward-compatibility goldens + open-mode equivalence.
//
// The stream fixtures under tests/data/golden/ were produced by the retired
// VCNIDX02-04 writer (see tests/data/golden/README.md for the exact
// generation parameters) and pin the legacy stream decode paths: the
// loaders refuse them, and upgrade_index() must convert each into the
// VCNIDX06 bytes of the same index. The packed_v06_* fixtures pin the
// region writer byte for byte, byte-wide distance columns included (and
// four-byte ones on the weighted graph). The packed_v05_* fixtures pin the
// all-four-byte version 5 the loaders still open: they answer exactly like
// a byte-wide build, and the two that carry the landmark parent rows an
// older writer emitted answer like their *_noparents twins. The second half
// of the suite proves the two open modes — zero-copy mmap and owned heap
// buffers — are observationally indistinguishable, including after
// COW-triggering updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/path.h"
#include "core/index_format.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "graph/builder.h"
#include "test_support.h"
#include "vicinity_index.h"

namespace vicinity::core {
namespace {

std::string golden(const char* name) {
  return std::string(VICINITY_TEST_DATA_DIR) + "/golden/" + name;
}

/// Asserts two oracles answer one pair identically: distance, resolution
/// method, exactness, look-up count, and the exact path vertex sequence.
void expect_same_answer(const VicinityOracle& a, const VicinityOracle& b,
                        NodeId s, NodeId t, QueryContext& ca,
                        QueryContext& cb) {
  const auto ra = a.distance(s, t, ca);
  const auto rb = b.distance(s, t, cb);
  ASSERT_EQ(ra.dist, rb.dist) << s << "->" << t;
  ASSERT_EQ(ra.method, rb.method) << s << "->" << t;
  ASSERT_EQ(ra.exact, rb.exact) << s << "->" << t;
  ASSERT_EQ(ra.hash_lookups, rb.hash_lookups) << s << "->" << t;
  const auto pa = a.path(s, t, ca);
  const auto pb = b.path(s, t, cb);
  ASSERT_EQ(pa.dist, pb.dist) << s << "->" << t;
  ASSERT_EQ(pa.method, pb.method) << s << "->" << t;
  ASSERT_EQ(pa.exact, pb.exact) << s << "->" << t;
  ASSERT_EQ(pa.path, pb.path) << s << "->" << t;
}

/// Every ordered pair of the graph through expect_same_answer.
void expect_all_pairs_identical(const VicinityOracle& a,
                                const VicinityOracle& b,
                                const graph::Graph& g) {
  QueryContext ca, cb;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_NO_FATAL_FAILURE(expect_same_answer(a, b, s, t, ca, cb));
    }
  }
}

/// expect_same_answer over `pairs` random pairs drawn from `seed`.
void expect_identical(const VicinityOracle& a, const VicinityOracle& b,
                      const graph::Graph& g, std::uint64_t seed, int pairs) {
  QueryContext ca, cb;
  util::Rng rng(seed);
  for (int i = 0; i < pairs; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    ASSERT_NO_FATAL_FAILURE(expect_same_answer(a, b, s, t, ca, cb));
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
/// of the reference length (and empty exactly when the pair is
/// unreachable).
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
        ASSERT_EQ(algo::path_length(g, p.path), want) << s << "->" << t;
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

/// upgrade_index() over a stream golden: the VCNIDX06 bytes it writes.
std::string upgraded(const char* name, const graph::Graph& g) {
  std::ifstream in(golden(name), std::ios::binary);
  std::ostringstream out(std::ios::binary);
  upgrade_index(in, g, out);
  return out.str();
}

/// Writes region-container bytes to `tmp` and opens it mapped; the caller
/// removes the file.
VicinityOracle open_mapped(const std::string& bytes, const graph::Graph& g,
                           const std::filesystem::path& tmp) {
  std::ofstream(tmp, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return load_oracle_file(tmp.string(), g);
}

bool is_distance_section(std::uint32_t id) {
  using S = region::SectionId;
  for (const S d : {S::kOutStoreDists, S::kInStoreDists, S::kTableDistRows,
                    S::kTableRevRows, S::kTableToLm, S::kTableFromLm}) {
    if (id == static_cast<std::uint32_t>(d)) return true;
  }
  return false;
}

/// Rewrites VCNIDX06 bytes as the VCNIDX05 container of the same index:
/// every byte-wide distance section widened to four bytes (255 becomes
/// kInfDistance), the sections laid out again in table order, and the
/// version digits set to 05 — what the version-5 writer emitted.
std::string as_v5(const std::string& v6) {
  region::FileHeader h;
  std::memcpy(&h, v6.data(), sizeof(h));
  std::vector<region::SectionEntry> table(h.section_count);
  std::memcpy(table.data(), v6.data() + region::kSectionTableOffset,
              table.size() * sizeof(region::SectionEntry));
  std::string out(region::align_up(region::kSectionTableOffset +
                                   table.size() *
                                       sizeof(region::SectionEntry)),
                  '\0');
  for (region::SectionEntry& e : table) {
    std::string payload = v6.substr(e.offset, e.bytes);
    if (is_distance_section(e.id) && e.elem_size == 1) {
      std::string wide(payload.size() * sizeof(Distance), '\0');
      for (std::size_t i = 0; i < payload.size(); ++i) {
        const Distance d = from_narrow(static_cast<std::uint8_t>(payload[i]));
        std::memcpy(wide.data() + i * sizeof(d), &d, sizeof(d));
      }
      payload = std::move(wide);
      e.elem_size = sizeof(Distance);
      e.bytes = e.count * e.elem_size;
    }
    e.offset = out.size();
    out += payload;
    out.resize(region::align_up(out.size()), '\0');
  }
  h.version_digits[1] = '5';
  h.file_bytes = out.size();
  std::memcpy(out.data(), &h, sizeof(h));
  std::memcpy(out.data() + region::kSectionTableOffset, table.data(),
              table.size() * sizeof(region::SectionEntry));
  return out;
}

/// Copies the edges of `base` with weights drawn from [lo, lo + span).
graph::Graph with_weights(const graph::Graph& base, Weight lo, Weight span,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphBuilder b(base.num_nodes(), /*directed=*/false);
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    for (const NodeId v : base.neighbors(u)) {
      if (u < v) {
        b.add_edge(u, v, lo + static_cast<Weight>(rng.next_below(span)));
      }
    }
  }
  return b.build(/*weighted=*/true);
}

/// The weighted golden's graph: random_connected(140, 460, 9131) with edge
/// weights drawn from [200, 1000), so every distance column needs four
/// bytes.
graph::Graph weighted_golden_graph() {
  return with_weights(testing::random_connected(140, 460, 9131), 200, 800,
                      9132);
}

/// True when every distance column of `o` is byte-wide.
bool all_narrow(const VicinityOracle& o) {
  return o.store().narrow() && o.store(Direction::kIn).narrow() &&
         o.tables().narrow();
}
/// True when every distance column of `o` is four bytes wide.
bool all_wide(const VicinityOracle& o) {
  return !o.store().narrow() && !o.store(Direction::kIn).narrow() &&
         !o.tables().narrow();
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
  // upgrades to exactly the VCNIDX06 golden of the same index: the reader
  // picks each distance column's width from its values. The stream carries
  // landmark parent rows; the reader checks and drops them. It maps with
  // BFS-exact answers and landmark-endpoint paths.
  const auto g = testing::random_connected(140, 460, 9111);
  const std::string bytes = upgraded("packed_v04_undirected.idx", g);
  EXPECT_TRUE(bytes == file_bytes(golden("packed_v06_undirected.idx")))
      << "packed_v04_undirected.idx does not upgrade to the v6 golden";

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_roundtrip.idx";
  const auto mapped = open_mapped(bytes, g, tmp);
  EXPECT_TRUE(mapped.store().mapped());
  expect_matches_reference(mapped, g, 9113, 80);
  expect_landmark_paths(mapped, g);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, PackedV04DirectedGoldenLoadsAndSurvivesV5RoundTrip) {
  // This fixture was written without landmark parents; it upgrades to the
  // directed v6 golden byte for byte.
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const std::string bytes = upgraded("packed_v04_directed.idx", g);
  EXPECT_TRUE(bytes == file_bytes(golden("packed_v06_directed.idx")))
      << "packed_v04_directed.idx does not upgrade to the v6 golden";

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
  // upgrade is exactly the VCNIDX06 golden of the same index.
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const std::string bytes = upgraded("flat_v04_directed.idx", g);
  EXPECT_TRUE(bytes == file_bytes(golden("packed_v06_directed.idx")))
      << "flat_v04_directed.idx does not upgrade to the v6 golden";

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
  // The loaders open only VCNIDX05-06. Each refuses a stream golden on its
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
  // upgrade_index only converts legacy files: a region container (VCNIDX05
  // or 06, which the loaders open directly) is refused before anything is
  // written, and a legacy file keeps its graph-shape and backend checks.
  const auto g = testing::random_connected(140, 460, 9111);
  for (const char* name :
       {"packed_v05_undirected.idx", "packed_v06_undirected.idx"}) {
    std::ostringstream out(std::ios::binary);
    try {
      std::ifstream in(golden(name), std::ios::binary);
      upgrade_index(in, g, out);
      ADD_FAILURE() << name << " was upgraded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("already current"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(out.str().empty()) << name;
  }
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
    int version;
    std::uint32_t dist_elem_size;  ///< of every distance section
  };
  // The *_noparents goldens lack only table_parent_rows; the v06 goldens
  // carry the same sections, the distance ones byte-wide on unweighted
  // graphs.
  const Expect cases[] = {
      {"packed_v05_undirected.idx", testing::random_connected(140, 460, 9111),
       14, 5, 4},
      {"packed_v05_directed.idx",
       testing::random_connected_directed(160, 1100, 9121), 24, 5, 4},
      {"packed_v05_undirected_noparents.idx",
       testing::random_connected(140, 460, 9111), 13, 5, 4},
      {"packed_v05_directed_noparents.idx",
       testing::random_connected_directed(160, 1100, 9121), 23, 5, 4},
      {"packed_v06_undirected.idx", testing::random_connected(140, 460, 9111),
       13, 6, 1},
      {"packed_v06_directed.idx",
       testing::random_connected_directed(160, 1100, 9121), 23, 6, 1},
      {"packed_v06_weighted.idx", weighted_golden_graph(), 13, 6, 4},
  };
  for (const Expect& c : cases) {
    const std::string path = golden(c.name);
    const IndexFileInfo info = inspect_index_file(path);
    EXPECT_EQ(info.version, c.version) << c.name;
    EXPECT_TRUE(info.mappable) << c.name;
    EXPECT_EQ(info.backend,
              c.g.directed() ? "vicinity-directed" : "vicinity")
        << c.name;
    EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path)) << c.name;
    EXPECT_EQ(info.num_nodes, c.g.num_nodes()) << c.name;
    EXPECT_EQ(info.num_arcs, c.g.num_arcs()) << c.name;
    EXPECT_EQ(info.directed, c.g.directed()) << c.name;
    EXPECT_EQ(info.weighted, c.g.weighted()) << c.name;
    EXPECT_DOUBLE_EQ(info.alpha, 3.0) << c.name;
    EXPECT_EQ(info.store_backend, "packed") << c.name;
    EXPECT_EQ(info.table_mode, "full") << c.name;
    EXPECT_EQ(info.sections.size(), c.sections) << c.name;
    std::size_t dist_sections = 0;
    for (const IndexSectionInfo& sec : info.sections) {
      if (!is_distance_section(sec.id)) continue;
      ++dist_sections;
      EXPECT_EQ(sec.elem_size, c.dist_elem_size) << c.name << " " << sec.name;
      EXPECT_EQ(sec.bytes, sec.count * sec.elem_size) << c.name;
    }
    EXPECT_EQ(dist_sections, c.g.directed() ? 4u : 2u) << c.name;
  }
}

TEST(GoldenCompatTest, PackedV05GoldensOpenBothWaysAndMatchTheWriter) {
  // Two of the packed_v05_* fixtures carry the table_parent_rows section an
  // older writer emitted; the loaders ignore it. Each must open mapped and
  // on the heap with BFS-exact answers and landmark-endpoint paths walked
  // from derived trees, answering exactly like its *_noparents twin, and
  // every v5 file opens with four-byte columns. Fresh builds of the
  // recorded graph and options at build_threads 1 and 4 must serialize to
  // the v06 golden's bytes (the parallel build is deterministic), hold
  // byte-wide columns, and answer like the v5 twin; the twin's bytes are
  // exactly the v06 golden with its distance sections widened.
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.fallback = Fallback::kBidirectionalBfs;
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  struct Case {
    const char* name;
    const char* twin;
    const char* v6;
    graph::Graph g;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"packed_v05_undirected.idx", "packed_v05_undirected_noparents.idx",
       "packed_v06_undirected.idx", testing::random_connected(140, 460, 9111),
       9112},
      {"packed_v05_directed.idx", "packed_v05_directed_noparents.idx",
       "packed_v06_directed.idx",
       testing::random_connected_directed(160, 1100, 9121), 9122},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto mapped = load_oracle_file(golden(c.name), c.g);
    const auto heap = load_oracle_file(golden(c.name), c.g, heap_opts);
    const auto twin = load_oracle_file(golden(c.twin), c.g);
    EXPECT_TRUE(mapped.store().mapped());
    EXPECT_FALSE(heap.store().mapped());
    EXPECT_TRUE(all_wide(mapped));
    EXPECT_TRUE(all_wide(heap));
    EXPECT_TRUE(all_wide(twin));
    expect_matches_reference(mapped, c.g, c.seed + 3, 80);
    expect_identical(mapped, heap, c.g, c.seed + 4, 80);
    expect_identical(mapped, twin, c.g, c.seed + 5, 80);
    expect_landmark_paths(mapped, c.g);
    expect_landmark_paths(heap, c.g);
    EXPECT_TRUE(as_v5(file_bytes(golden(c.v6))) == file_bytes(golden(c.twin)))
        << c.v6 << " widened differs from " << c.twin;
    opt.seed = c.seed;
    for (const unsigned threads : {1u, 4u}) {
      opt.build_threads = threads;
      const auto built = VicinityOracle::build(c.g, opt);
      EXPECT_TRUE(all_narrow(built));
      std::ostringstream out(std::ios::binary);
      save_oracle(built, out);
      EXPECT_TRUE(out.str() == file_bytes(golden(c.v6)))
          << "fresh build (build_threads " << threads << ") differs from "
          << c.v6;
      if (threads == 1) expect_all_pairs_identical(built, twin, c.g);
    }
  }
}

TEST(GoldenCompatTest, WeightedV06GoldenKeepsFourByteColumns) {
  // Edge weights of 200-999 put every distance column past a byte: a fresh
  // build keeps four bytes throughout and serializes to the weighted v06
  // golden, which opens mapped and on the heap with Dijkstra-exact answers.
  const auto g = weighted_golden_graph();
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 9133;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto built = VicinityOracle::build(g, opt);
  EXPECT_TRUE(all_wide(built));
  std::ostringstream out(std::ios::binary);
  save_oracle(built, out);
  EXPECT_TRUE(out.str() == file_bytes(golden("packed_v06_weighted.idx")))
      << "fresh build differs from packed_v06_weighted.idx";

  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  const auto mapped = load_oracle_file(golden("packed_v06_weighted.idx"), g);
  const auto heap =
      load_oracle_file(golden("packed_v06_weighted.idx"), g, heap_opts);
  EXPECT_TRUE(mapped.store().mapped());
  EXPECT_TRUE(all_wide(mapped));
  EXPECT_TRUE(all_wide(heap));
  expect_matches_reference(mapped, g, 9134, 200);
  expect_matches_reference(heap, g, 9135, 200);
  expect_all_pairs_identical(built, mapped, g);
  expect_landmark_paths(mapped, g);
}

TEST(GoldenCompatTest, ByteWideBuildsAnswerLikeFourByteLoads) {
  // On undirected, directed and weighted graphs whose distances fit a
  // byte, the byte-wide build and the same index written as an all-four-
  // byte VCNIDX05 file (opened mapped and on the heap) answer every pair
  // and path identically: dist, method, exact and hash_lookups.
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 9143;
  opt.fallback = Fallback::kBidirectionalBfs;
  const graph::Graph graphs[] = {
      testing::random_connected(140, 460, 9111),
      testing::random_connected_directed(160, 1100, 9121),
      with_weights(testing::random_connected(150, 520, 9141), 1, 9, 9142),
  };
  for (const graph::Graph& g : graphs) {
    SCOPED_TRACE(g.directed() ? "directed"
                 : g.weighted() ? "weighted"
                                : "undirected");
    const auto built = VicinityOracle::build(g, opt);
    EXPECT_TRUE(all_narrow(built));
    std::ostringstream out(std::ios::binary);
    save_oracle(built, out);
    const std::string v5 = as_v5(out.str());
    const auto tmp = std::filesystem::temp_directory_path() /
                     "vicinity_golden_as_v5.idx";
    const auto mapped = open_mapped(v5, g, tmp);
    std::istringstream in(v5, std::ios::binary);
    const auto heap = load_oracle(in, g);
    EXPECT_EQ(inspect_index_file(tmp.string()).version, 5);
    EXPECT_TRUE(all_wide(mapped));
    EXPECT_TRUE(all_wide(heap));
    expect_all_pairs_identical(built, mapped, g);
    expect_all_pairs_identical(built, heap, g);
    expect_matches_reference(built, g, 9144, 200);
    std::filesystem::remove(tmp);
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
