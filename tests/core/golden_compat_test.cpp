// Backward-compatibility goldens + open-mode equivalence.
//
// The stream fixtures under tests/data/golden/ were produced by the retired
// VCNIDX02-04 writer (see tests/data/golden/README.md for the exact
// generation parameters) and pin the legacy stream decode paths: the writer
// only emits VCNIDX05 region containers, so these files are the only way to
// prove VCNIDX02-04 files still load. The packed_v05_* fixtures pin the
// region writer byte for byte. The second half of the suite proves the two
// v5 open modes — zero-copy mmap and owned heap buffers — are
// observationally indistinguishable, including after COW-triggering
// updates.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "test_support.h"

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

TEST(GoldenCompatTest, FlatGoldensAcrossVersionsAnswerIdentically) {
  // The three flat goldens share one body (the hash-backend layout never
  // changed between VCNIDX02 and 04); loading each through its version's
  // decode path must give bit-identical answers and exact distances. The
  // retired hash layout loads into a fully packed store, and re-saving it
  // writes a VCNIDX05 file that maps and answers identically.
  const auto g = testing::random_connected(140, 460, 9101);
  const auto v4 = load_oracle_file(golden("flat_v04_undirected.idx"), g);
  const auto v3 = load_oracle_file(golden("flat_v03_undirected.idx"), g);
  const auto v2 = load_oracle_file(golden("flat_v02_undirected.idx"), g);
  EXPECT_EQ(v4.options().backend, StoreBackend::kPacked);
  EXPECT_TRUE(v4.store().fully_packed());
  expect_identical(v4, v3, g, 9103, 80);
  expect_identical(v4, v2, g, 9104, 80);
  expect_matches_reference(v4, g, 9105, 80);

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_flat_roundtrip.idx";
  save_oracle_file(v4, tmp.string());
  const auto mapped = load_oracle_file(tmp.string(), g);
  EXPECT_TRUE(mapped.store().mapped());
  expect_identical(v4, mapped, g, 9106, 100);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, PackedV04GoldenLoadsAndSurvivesV5RoundTrip) {
  // A packed VCNIDX04 stream must still decode through the legacy blob
  // reader — and re-saving it (which now writes a VCNIDX05 region
  // container) then mmapping that must preserve the answer stream bit for
  // bit.
  const auto g = testing::random_connected(140, 460, 9111);
  const auto legacy =
      load_oracle_file(golden("packed_v04_undirected.idx"), g);
  EXPECT_EQ(legacy.options().backend, StoreBackend::kPacked);
  EXPECT_TRUE(legacy.store().fully_packed());
  expect_matches_reference(legacy, g, 9113, 80);

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_roundtrip.idx";
  save_oracle_file(legacy, tmp.string());
  const auto mapped = load_oracle_file(tmp.string(), g);
  EXPECT_TRUE(mapped.store().mapped());
  expect_identical(legacy, mapped, g, 9114, 100);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, PackedV04DirectedGoldenLoadsAndSurvivesV5RoundTrip) {
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const auto legacy = load_oracle_file(golden("packed_v04_directed.idx"), g);
  EXPECT_TRUE(legacy.store().fully_packed());
  EXPECT_TRUE(legacy.store(Direction::kIn).fully_packed());
  expect_matches_reference(legacy, g, 9123, 80);

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_roundtrip_dir.idx";
  save_oracle_file(legacy, tmp.string());
  const auto mapped = load_oracle_file(tmp.string(), g);
  expect_identical(legacy, mapped, g, 9124, 100);
  std::filesystem::remove(tmp);
}

TEST(GoldenCompatTest, FlatV04DirectedGoldenLoadsAndSurvivesV5RoundTrip) {
  // The directed hash-body stream: out- and in-vicinity records interleave
  // per slot, a layout no other fixture pins. Both stores load fully
  // packed, and the VCNIDX05 re-save maps and answers identically.
  const auto g = testing::random_connected_directed(160, 1100, 9121);
  const auto legacy = load_oracle_file(golden("flat_v04_directed.idx"), g);
  EXPECT_TRUE(legacy.store().fully_packed());
  EXPECT_TRUE(legacy.store(Direction::kIn).fully_packed());
  expect_matches_reference(legacy, g, 9125, 120);

  const auto tmp = std::filesystem::temp_directory_path() /
                   "vicinity_golden_flat_roundtrip_dir.idx";
  save_oracle_file(legacy, tmp.string());
  const auto mapped = load_oracle_file(tmp.string(), g);
  EXPECT_TRUE(mapped.store().mapped());
  expect_identical(legacy, mapped, g, 9128, 100);
  std::filesystem::remove(tmp);
}

/// Reads a whole file as bytes.
std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

TEST(GoldenCompatTest, PackedV05GoldensOpenBothWaysAndMatchTheWriter) {
  // VCNIDX05 fixtures written before the stream writer was retired: each
  // must open mapped and on the heap with BFS-exact answers, and fresh
  // builds of the recorded graph and options at build_threads 1 and 4 must
  // serialize to the very same bytes (the parallel build is
  // deterministic).
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.fallback = Fallback::kBidirectionalBfs;
  opt.store_landmark_parents = true;
  OpenOptions heap_opts;
  heap_opts.mode = OpenMode::kHeap;
  {
    const auto g = testing::random_connected(140, 460, 9111);
    const auto path = golden("packed_v05_undirected.idx");
    const auto mapped = load_oracle_file(path, g);
    const auto heap = load_oracle_file(path, g, heap_opts);
    EXPECT_TRUE(mapped.store().mapped());
    EXPECT_FALSE(heap.store().mapped());
    expect_matches_reference(mapped, g, 9115, 80);
    expect_identical(mapped, heap, g, 9116, 80);
    opt.seed = 9112;
    for (const unsigned threads : {1u, 4u}) {
      opt.build_threads = threads;
      std::ostringstream out(std::ios::binary);
      save_oracle(VicinityOracle::build(g, opt), out);
      EXPECT_TRUE(out.str() == file_bytes(path))
          << "fresh undirected build (build_threads " << threads
          << ") differs from the golden bytes";
    }
  }
  {
    const auto g = testing::random_connected_directed(160, 1100, 9121);
    const auto path = golden("packed_v05_directed.idx");
    const auto mapped = load_oracle_file(path, g);
    const auto heap = load_oracle_file(path, g, heap_opts);
    EXPECT_TRUE(mapped.store().mapped());
    EXPECT_FALSE(heap.store().mapped());
    expect_matches_reference(mapped, g, 9126, 80);
    expect_identical(mapped, heap, g, 9127, 80);
    opt.seed = 9122;
    for (const unsigned threads : {1u, 4u}) {
      opt.build_threads = threads;
      std::ostringstream out(std::ios::binary);
      save_oracle(VicinityOracle::build(g, opt), out);
      EXPECT_TRUE(out.str() == file_bytes(path))
          << "fresh directed build (build_threads " << threads
          << ") differs from the golden bytes";
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
  opt.store_landmark_parents = true;
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
  opt.store_landmark_parents = true;
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
