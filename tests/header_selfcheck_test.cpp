// The umbrella header must be usable as the only project include in a fresh
// translation unit — exactly how the README quickstart presents it. It is
// deliberately the first include here; adding anything above it would defeat
// the test. The per-header compile checks live in the generated
// vicinity_header_selfcheck object library (see tests/CMakeLists.txt); this
// TU additionally exercises the documented quickstart surface end to end.
#include "vicinity.h"

#include <gtest/gtest.h>

namespace vicinity {
namespace {

TEST(HeaderSelfCheck, UmbrellaHeaderSupportsTheQuickstartSnippet) {
  util::Rng rng(7);
  graph::Graph g = gen::powerlaw_cluster(500, 6, 0.4, rng);
  core::OracleOptions opt;
  auto oracle = core::VicinityOracle::build(g, opt);

  const NodeId s = 12;
  const NodeId t = 345;
  core::QueryContext ctx;
  const auto r = oracle.distance(s, t, ctx);
  const Distance reference = algo::bfs(g, s).dist[t];
  EXPECT_EQ(r.dist, reference);
  EXPECT_TRUE(r.exact);

  const auto p = oracle.path(s, t, ctx);
  EXPECT_EQ(p.dist, reference);
  if (reference != kInfDistance) {
    ASSERT_FALSE(p.path.empty());
    EXPECT_EQ(p.path.front(), s);
    EXPECT_EQ(p.path.back(), t);
    EXPECT_TRUE(algo::is_valid_path(g, p.path, s, t));
    EXPECT_EQ(algo::path_length(g, p.path), reference);
  }
}

}  // namespace
}  // namespace vicinity
