// Cross-module integration: profile graph -> oracle -> queries vs all
// baselines on the same instance, plus an end-to-end save/load/query cycle
// through the filesystem.
#include <gtest/gtest.h>

#include "vicinity.h"

namespace vicinity {
namespace {

TEST(IntegrationTest, ProfileToOracleToQueries) {
  const auto profile = gen::make_profile("dblp", 42, 0.002);
  const auto& g = profile.graph;
  ASSERT_GT(g.num_nodes(), 300u);

  core::OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 1;
  opt.fallback = core::Fallback::kBidirectionalBfs;
  auto oracle = core::VicinityOracle::build(g, opt);

  algo::BidirectionalBfsRunner bidi(g);
  algo::BfsRunner plain(g);
  util::Rng rng(2);
  core::QueryContext ctx;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto d_oracle = oracle.distance(s, t, ctx).dist;
    EXPECT_EQ(d_oracle, bidi.distance(s, t).dist);
    EXPECT_EQ(d_oracle, plain.distance(s, t));
  }
}

graph::Graph medium_social_graph() {
  util::Rng rng(99);
  return gen::powerlaw_cluster(1500, 4, 0.5, rng);
}

TEST(IntegrationTest, AllOraclesAgreeOnExactness) {
  const auto g = medium_social_graph();
  core::OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 3;
  opt.fallback = core::Fallback::kBidirectionalBfs;
  auto vic = core::VicinityOracle::build(g, opt);
  util::Rng rng1(4);
  baselines::TzOracle tz(g, rng1);
  baselines::LandmarkEstimator lm(g, 8);
  algo::AltOracle alt(g, 4);

  util::Rng rng(5);
  core::QueryContext ctx;
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const Distance exact = vic.distance(s, t, ctx).dist;  // fallback => exact
    EXPECT_EQ(alt.distance(s, t), exact);            // ALT exact
    EXPECT_GE(tz.distance(s, t), exact);             // approximations bound
    EXPECT_GE(lm.upper_bound(s, t), exact);
    EXPECT_LE(lm.lower_bound(s, t), exact);
  }
}

TEST(IntegrationTest, GraphAndIndexPersistenceCycle) {
  const auto profile = gen::make_profile("livejournal", 7, 0.0005);
  const auto& g = profile.graph;
  const std::string dir = ::testing::TempDir();
  graph::save_binary_file(g, dir + "/lj.bin");
  const auto g2 = graph::load_binary_file(dir + "/lj.bin");

  core::OracleOptions opt;
  opt.alpha = 4.0;
  opt.seed = 8;
  auto oracle = core::VicinityOracle::build(g2, opt);
  core::save_oracle_file(oracle, dir + "/lj.idx");
  auto loaded = core::load_oracle_file(dir + "/lj.idx", g2);

  util::Rng rng(9);
  core::QueryContext ctx;
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g2.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g2.num_nodes()));
    EXPECT_EQ(oracle.distance(s, t, ctx).dist, loaded.distance(s, t, ctx).dist);
  }
}

TEST(IntegrationTest, WeightedPipeline) {
  auto profile = gen::make_profile("dblp", 11, 0.001);
  util::Rng wrng(12);
  const auto g = graph::with_random_weights(profile.graph, wrng, 1, 8);
  core::OracleOptions opt;
  // Weighted queries additionally apply the radius-sum acceptance guard,
  // which trades coverage for soundness; a larger alpha compensates.
  opt.alpha = 16.0;
  opt.seed = 13;
  auto oracle = core::VicinityOracle::build(g, opt);
  algo::BidirectionalDijkstraRunner bidi(g);
  util::Rng rng(14);
  std::size_t answered = 0;
  core::QueryContext ctx;
  for (int i = 0; i < 80; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    if (r.method == core::QueryMethod::kNotFound) continue;
    ++answered;
    ASSERT_EQ(r.dist, bidi.distance(s, t).dist);
  }
  EXPECT_GT(answered, 40u);
}

}  // namespace
}  // namespace vicinity
