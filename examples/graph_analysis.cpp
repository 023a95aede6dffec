// Research workflow from the paper's introduction: distance-based graph
// analysis needs unbiased pairwise-distance samples ("it is often desirable
// to obtain the shortest distance between each pair of nodes in a randomly
// sampled set of nodes", §1). This example estimates the distance
// distribution and effective diameter of a network two ways — exact BFS per
// pair vs the vicinity oracle — and compares throughput.
//
//   ./examples/graph_analysis [scale]
#include <cstdlib>
#include <iostream>

#include "vicinity.h"

using namespace vicinity;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.01;
  auto profile = gen::make_profile("flickr", 31, scale);
  const auto& g = profile.graph;
  std::cout << "network under analysis: " << g.summary() << "\n\n";

  // Sampled-pairs methodology (paper §2.3): the oracle indexes only the
  // sampled nodes — a fraction of full preprocessing.
  util::Rng rng(3);
  const auto sample = [&] {
    std::vector<NodeId> out;
    for (auto v : rng.sample_without_replacement(g.num_nodes(), 250)) {
      out.push_back(static_cast<NodeId>(v));
    }
    return out;
  }();

  core::OracleOptions options;
  options.alpha = 16.0;
  options.fallback = core::Fallback::kBidirectionalBfs;
  util::Timer build_timer;
  auto oracle = core::VicinityOracle::build_for(g, options, sample);
  const double build_s = build_timer.elapsed_seconds();

  // Distance distribution over all sampled pairs via the oracle.
  util::SampleSet dists;
  core::QueryContext ctx;
  util::Timer oracle_timer;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (std::size_t j = i + 1; j < sample.size(); ++j) {
      const auto d = oracle.distance(sample[i], sample[j], ctx);
      if (d.dist != kInfDistance) dists.add(static_cast<double>(d.dist));
    }
  }
  const double oracle_s = oracle_timer.elapsed_seconds();

  // The same estimate via per-source BFS (what [5]'s 500-second number
  // refers to at full scale).
  util::Timer bfs_timer;
  const std::size_t bfs_sources = 25;  // extrapolated below
  for (std::size_t i = 0; i < bfs_sources; ++i) {
    const auto tree = algo::bfs(g, sample[i]);
    (void)tree;
  }
  const double bfs_s_extrapolated =
      bfs_timer.elapsed_seconds() / static_cast<double>(bfs_sources) *
      static_cast<double>(sample.size());

  std::cout << "pairs sampled: " << dists.size() << "\n";
  std::cout << "mean distance: " << util::fmt_fixed(dists.mean(), 3)
            << "  median: " << util::fmt_fixed(dists.percentile(50), 1)
            << "  p90: " << util::fmt_fixed(dists.percentile(90), 1) << "\n";
  // Effective diameter: 90th percentile of pairwise distances (standard in
  // the graph-mining literature).
  std::cout << "effective diameter (p90): "
            << util::fmt_fixed(dists.percentile(90), 2) << "\n\n";

  std::cout << "distance distribution:\n";
  util::Histogram hist(0.5, 10.5, 10);
  for (const double d : dists.values()) hist.add(d);
  for (std::size_t b = 0; b < hist.buckets(); ++b) {
    const double frac = 100.0 * static_cast<double>(hist.bucket_count(b)) /
                        static_cast<double>(hist.total());
    if (hist.bucket_count(b) == 0) continue;
    std::cout << "  d=" << (b + 1) << "  " << util::fmt_fixed(frac, 1) << "%  "
              << std::string(static_cast<std::size_t>(frac), '#') << "\n";
  }

  std::cout << "\ncost comparison for " << dists.size() << " pair distances:\n"
            << "  oracle:  " << util::fmt_fixed(build_s, 2) << "s index + "
            << util::fmt_fixed(oracle_s, 2) << "s queries\n"
            << "  per-source BFS (extrapolated): "
            << util::fmt_fixed(bfs_s_extrapolated, 2) << "s\n";
  return 0;
}
