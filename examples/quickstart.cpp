// Quickstart: build a shortest-path index over a synthetic social network
// through the vicinity::Index facade and answer distance + path queries in
// microseconds — the runnable version of the README / vicinity.h snippet.
//
//   ./examples/quickstart [nodes]
#include <cstdlib>
#include <iostream>

#include "vicinity.h"

using namespace vicinity;

int main(int argc, char** argv) {
  const NodeId n = argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 10000;

  // 1. A social-network-shaped graph (power-law degrees, high clustering).
  util::Rng rng(7);
  graph::Graph g = gen::powerlaw_cluster(n, 8, 0.5, rng);
  std::cout << "graph: " << g.summary() << "\n";

  // 2. Build the index. The oracle reads the graph kind from g (this one
  //    is undirected). alpha controls the vicinity size (paper
  //    §2.2); the exact bidirectional-BFS fallback covers the rare pairs
  //    whose vicinities do not intersect, making every answer exact.
  core::OracleOptions options;
  options.alpha = 8.0;
  options.fallback = core::Fallback::kBidirectionalBfs;
  util::Timer build_timer;
  const auto index = Index::build(g, options);
  std::cout << "'" << index.backend_name() << "' index ["
            << index.capabilities().to_string() << "] built in "
            << util::fmt_fixed(build_timer.elapsed_seconds(), 2) << "s: "
            << util::fmt_si(static_cast<double>(index.memory_stats().vicinity_entries))
            << " vicinity entries ("
            << util::fmt_bytes(index.memory_stats().bytes) << ")\n\n";

  // 3. Query.
  util::Rng pick(42);
  for (int i = 0; i < 5; ++i) {
    const auto s = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    util::Timer q;
    const auto d = index.distance(s, t);
    const double us = q.elapsed_us();
    const auto p = index.path(s, t);
    std::cout << "d(" << s << ", " << t << ") = " << d.dist << "  ["
              << core::to_string(d.method) << ", " << d.hash_lookups
              << " hash look-ups, " << util::fmt_fixed(us, 1) << "us]\n  path:";
    for (const NodeId v : p.path) std::cout << " " << v;
    std::cout << "\n";
  }

  // 4. Coverage without the fallback (the paper's 99.9% metric), via the
  //    typed introspection hatch (null for non-vicinity backends).
  if (const core::VicinityOracle* oracle = index.undirected()) {
    util::Rng cov_rng(3);
    std::cout << "\ncoverage without fallback: "
              << util::fmt_fixed(100 * oracle->estimate_coverage(2000, cov_rng), 2)
              << "% of random pairs\n";
  }
  return 0;
}
