#include "core/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/query_engine.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

OracleOptions opts() {
  OracleOptions o;
  o.alpha = 4.0;
  o.seed = 9;
  return o;
}

TEST(SerializeTest, RoundTripPreservesEveryAnswer) {
  const auto g = testing::random_connected(600, 2400, 401);
  auto oracle = VicinityOracle::build(g, opts());
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);

  EXPECT_EQ(loaded.landmarks().nodes, oracle.landmarks().nodes);
  EXPECT_EQ(loaded.memory_stats().vicinity_entries,
            oracle.memory_stats().vicinity_entries);

  util::Rng rng(402);
  QueryContext ctx;
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto a = oracle.distance(s, t, ctx);
    const auto b = loaded.distance(s, t, ctx);
    ASSERT_EQ(a.dist, b.dist) << s << "->" << t;
    ASSERT_EQ(a.method, b.method);
    ASSERT_EQ(a.hash_lookups, b.hash_lookups);
  }
}

TEST(SerializeTest, RoundTripPreservesPaths) {
  const auto g = testing::random_connected(400, 1600, 403);
  auto oracle = VicinityOracle::build(g, opts());
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);
  util::Rng rng(404);
  QueryContext ctx;
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(oracle.path(s, t, ctx).path, loaded.path(s, t, ctx).path);
  }
}

TEST(SerializeTest, SubsetOracleRoundTrips) {
  const auto g = testing::random_connected(1500, 6000, 405);
  util::Rng rng(406);
  std::vector<NodeId> sample;
  for (int i = 0; i < 30; ++i) {
    sample.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  OracleOptions o;
  o.alpha = 4.0;
  o.seed = 11;
  auto oracle = VicinityOracle::build_for(g, o, sample);
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);
  QueryContext ctx;
  for (const NodeId s : sample) {
    for (const NodeId t : sample) {
      const auto a = oracle.distance(s, t, ctx);
      const auto b = loaded.distance(s, t, ctx);
      ASSERT_EQ(a.dist, b.dist);
      ASSERT_EQ(a.method, b.method);
    }
  }
}

TEST(SerializeTest, RejectsWrongGraph) {
  const auto g = testing::random_connected(300, 1200, 407);
  auto oracle = VicinityOracle::build(g, opts());
  std::stringstream buf;
  save_oracle(oracle, buf);
  const auto other = testing::random_connected(301, 1200, 408);
  EXPECT_THROW(load_oracle(buf, other), std::runtime_error);
}

TEST(SerializeTest, RejectsGarbage) {
  const auto g = testing::karate_club();
  std::istringstream in("this is not an oracle index");
  EXPECT_THROW(load_oracle(in, g), std::runtime_error);
}

TEST(SerializeTest, FileHelpers) {
  const auto g = testing::karate_club();
  auto oracle = VicinityOracle::build(g, opts());
  const std::string path = ::testing::TempDir() + "/oracle.idx";
  save_oracle_file(oracle, path);
  auto loaded = load_oracle_file(path, g);
  EXPECT_EQ(loaded.landmarks().size(), oracle.landmarks().size());
  EXPECT_THROW(load_oracle_file("/nonexistent/oracle.idx", g),
               std::runtime_error);
}

TEST(SerializeTest, AllStoreBackendsRoundTrip) {
  // The packed arena is the one store layout and VCNIDX07 the one format
  // the writer emits: a round trip must keep the store fully packed and the
  // answers bit-identical.
  const auto g = testing::random_connected(400, 1600, 419);
  auto oracle = VicinityOracle::build(g, opts());
  std::stringstream buf;
  save_oracle(oracle, buf);
  EXPECT_EQ(buf.str().substr(0, 8), "VCNIDX07");
  auto loaded = load_oracle(buf, g);
  EXPECT_EQ(loaded.options().backend, StoreBackend::kPacked);
  EXPECT_EQ(loaded.store().total_entries(), oracle.store().total_entries());
  EXPECT_TRUE(loaded.store().fully_packed());
  util::Rng rng(420);
  QueryContext ctx;
  for (int i = 0; i < 120; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto a = oracle.distance(s, t, ctx);
    const auto b = loaded.distance(s, t, ctx);
    ASSERT_EQ(a.dist, b.dist) << s << "->" << t;
    ASSERT_EQ(a.method, b.method);
    ASSERT_EQ(a.hash_lookups, b.hash_lookups);
  }
}

// ---- Directed oracle (VCNIDX03+, backend tag 1) -------------------------

TEST(SerializeTest, DirectedRoundTripAnswersBitIdentical) {
  const auto g = testing::random_connected_directed(500, 4000, 409);
  OracleOptions o = opts();
  o.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, o);
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);

  EXPECT_EQ(loaded.landmarks().nodes, oracle.landmarks().nodes);
  EXPECT_EQ(loaded.memory_stats().vicinity_entries,
            oracle.memory_stats().vicinity_entries);
  EXPECT_EQ(loaded.memory_stats().landmark_entries,
            oracle.memory_stats().landmark_entries);

  QueryContext a, b;
  util::Rng rng(410);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto x = oracle.distance(s, t, a);
    const auto y = loaded.distance(s, t, b);
    ASSERT_EQ(x.dist, y.dist) << s << "->" << t;
    ASSERT_EQ(x.method, y.method);
    ASSERT_EQ(x.hash_lookups, y.hash_lookups);
    ASSERT_EQ(x.exact, y.exact);
  }
}

TEST(SerializeTest, DirectedRoundTripPreservesPaths) {
  const auto g = testing::random_connected_directed(350, 2800, 411);
  OracleOptions o = opts();
  o.fallback = Fallback::kBidirectionalBfs;
  auto oracle = VicinityOracle::build(g, o);
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);
  QueryContext a, b;
  util::Rng rng(412);
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(oracle.path(s, t, a).path, loaded.path(s, t, b).path);
  }
}

TEST(SerializeTest, DirectedRejectsWrongGraph) {
  const auto g = testing::random_connected_directed(300, 2400, 413);
  auto oracle = VicinityOracle::build(g, opts());
  std::stringstream buf;
  save_oracle(oracle, buf);
  const auto other = testing::random_connected_directed(320, 2600, 414);
  EXPECT_THROW(load_oracle(buf, other), std::runtime_error);
}

TEST(SerializeTest, DirectedFileHelpers) {
  const auto g = testing::random_connected_directed(150, 1000, 415);
  auto oracle = VicinityOracle::build(g, opts());
  const std::string path = ::testing::TempDir() + "/directed_oracle.idx";
  save_oracle_file(oracle, path);
  auto loaded = load_oracle_file(path, g);
  EXPECT_EQ(loaded.landmarks().size(), oracle.landmarks().size());
  // The backend-agnostic loader reports the directed backend.
  auto any = load_any_oracle_file(path, g);
  ASSERT_NE(any, nullptr);
  EXPECT_STREQ(any->backend_name(), "vicinity-directed");
  ASSERT_NE(any->as_directed(), nullptr);
  QueryContext ctx;
  util::Rng rng(416);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    EXPECT_EQ(any->distance(s, t, ctx).dist, oracle.distance(s, t, ctx).dist);
  }
}

TEST(SerializeTest, DirectedSubsetOracleRoundTrips) {
  const auto g = testing::random_connected_directed(900, 7200, 417);
  util::Rng rng(418);
  std::vector<NodeId> sample;
  for (int i = 0; i < 120; ++i) {
    sample.push_back(static_cast<NodeId>(rng.next_below(g.num_nodes())));
  }
  auto oracle = VicinityOracle::build_for(g, opts(), sample);
  std::stringstream buf;
  save_oracle(oracle, buf);
  auto loaded = load_oracle(buf, g);
  QueryContext a, b;
  for (std::size_t i = 0; i + 1 < sample.size(); ++i) {
    const NodeId s = sample[i];
    const NodeId t = sample[i + 1];
    const auto x = oracle.distance(s, t, a);
    const auto y = loaded.distance(s, t, b);
    ASSERT_EQ(x.dist, y.dist) << s << "->" << t;
    ASSERT_EQ(x.method, y.method);
  }
}

TEST(SerializeTest, MappedOpenCountsHeapAndFileBytesApart) {
  // memory_stats().bytes counts heap bytes only. A mapped open leaves its
  // vicinity arenas and landmark matrices in the file, reported by the
  // stores' and the tables' mapped_bytes(); together they add up to a
  // heap open's bytes, on either graph kind. A fresh build (its arenas
  // appended batch by batch) holds exactly the heap open's bytes.
  OracleOptions o;
  o.alpha = 2.0;
  o.seed = 6;
  const graph::Graph graphs[] = {
      testing::random_connected(3000, 12000, 5),
      testing::random_connected_directed(2000, 12000, 7),
  };
  for (const graph::Graph& g : graphs) {
    SCOPED_TRACE(g.directed() ? "directed" : "undirected");
    const std::string path = ::testing::TempDir() + "/memory_split.idx";
    const auto built = VicinityOracle::build(g, o);
    save_oracle_file(built, path);
    const auto mapped = load_oracle_file(path, g);
    OpenOptions heap_opts;
    heap_opts.mode = OpenMode::kHeap;
    const auto heap = load_oracle_file(path, g, heap_opts);
    ASSERT_TRUE(mapped.tables().mapped());
    std::uint64_t file_bytes = mapped.tables().mapped_bytes();
    for (const Direction d : {Direction::kOut, Direction::kIn}) {
      if (d == Direction::kIn && !g.directed()) break;
      EXPECT_GT(mapped.store(d).mapped_bytes(), 0u);
      EXPECT_EQ(heap.store(d).mapped_bytes(), 0u);
      file_bytes += mapped.store(d).mapped_bytes();
    }
    EXPECT_GT(mapped.tables().mapped_bytes(), 0u);
    EXPECT_EQ(heap.tables().mapped_bytes(), 0u);
    EXPECT_EQ(built.memory_stats().bytes, heap.memory_stats().bytes);
    EXPECT_LT(mapped.memory_stats().bytes, heap.memory_stats().bytes);
    EXPECT_EQ(mapped.memory_stats().bytes + file_bytes,
              heap.memory_stats().bytes);
  }
}

}  // namespace
}  // namespace vicinity::core
