// Social search: "how is user A connected to user B?" — the LinkedIn-style
// scenario from the paper's introduction (§1). Builds a LiveJournal-shaped
// network, then serves connection-chain queries and reports the
// degrees-of-separation distribution across random user pairs.
//
//   ./examples/social_search [scale]
#include <cstdlib>
#include <iostream>

#include "vicinity.h"

using namespace vicinity;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.002;
  auto profile = gen::make_profile("livejournal", 11, scale);
  const auto& g = profile.graph;
  std::cout << "social network: " << g.summary() << "\n";

  core::OracleOptions options;
  options.alpha = 8.0;
  options.fallback = core::Fallback::kBidirectionalBfs;
  auto oracle = core::VicinityOracle::build(g, options);
  std::cout << "index: " << oracle.landmarks().size() << " landmarks, built in "
            << util::fmt_fixed(oracle.build_stats().seconds, 2) << "s\n\n";

  // Connection chains for a few random user pairs. Queries run on one
  // caller-owned context (one per thread when querying concurrently).
  core::QueryContext ctx;
  util::Rng rng(5);
  std::cout << "connection chains:\n";
  for (int i = 0; i < 5; ++i) {
    const auto a = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto b = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto p = oracle.path(a, b, ctx);
    std::cout << "  user" << a << " -> user" << b << ": ";
    if (p.path.empty()) {
      std::cout << "not connected\n";
      continue;
    }
    std::cout << p.dist << " hop" << (p.dist == 1 ? "" : "s") << " via";
    for (std::size_t k = 1; k + 1 < p.path.size(); ++k) {
      std::cout << " user" << p.path[k];
    }
    if (p.path.size() <= 2) std::cout << " (direct)";
    std::cout << "\n";
  }

  // Degrees-of-separation distribution ("six degrees").
  const int pairs = 20000;
  std::vector<std::uint64_t> histogram(16, 0);
  util::StreamingStats sep;
  util::Timer timer;
  for (int i = 0; i < pairs; ++i) {
    const auto a = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    auto b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto d = oracle.distance(a, b, ctx);
    if (d.dist == kInfDistance) continue;
    ++histogram[std::min<std::size_t>(d.dist, histogram.size() - 1)];
    sep.add(static_cast<double>(d.dist));
  }
  std::cout << "\n" << pairs << " random pairs in "
            << util::fmt_fixed(timer.elapsed_ms(), 0) << "ms ("
            << util::fmt_fixed(timer.elapsed_us() / pairs, 1)
            << "us/query)\ndegrees of separation: mean "
            << util::fmt_fixed(sep.mean(), 2) << ", max "
            << util::fmt_fixed(sep.max(), 0) << "\n";
  for (std::size_t d = 1; d < histogram.size(); ++d) {
    if (histogram[d] == 0) continue;
    const double frac = 100.0 * static_cast<double>(histogram[d]) /
                        static_cast<double>(pairs);
    std::cout << "  " << d << " hops: " << util::fmt_fixed(frac, 1) << "%  "
              << std::string(static_cast<std::size_t>(frac), '#') << "\n";
  }
  return 0;
}
