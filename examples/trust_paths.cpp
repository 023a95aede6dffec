// Trust-aware marketplace ranking — the paper's social-auction scenario
// (§1, citing Swamynathan et al. [15]): among candidate sellers offering an
// item, prefer the ones socially closest to the buyer, and show the
// referral chain that connects them.
//
//   ./examples/trust_paths [scale]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "vicinity.h"

using namespace vicinity;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.01;
  auto profile = gen::make_profile("dblp", 23, scale);
  const auto& g = profile.graph;
  std::cout << "marketplace social graph: " << g.summary() << "\n";

  core::OracleOptions options;
  options.alpha = 16.0;
  options.fallback = core::Fallback::kBidirectionalBfs;
  auto oracle = core::VicinityOracle::build(g, options);

  // A buyer and a pool of candidate sellers for the same listing.
  util::Rng rng(17);
  const auto buyer = static_cast<NodeId>(rng.next_below(g.num_nodes()));
  struct Seller {
    NodeId user;
    Distance dist;
    double price;
  };
  std::vector<Seller> sellers;
  for (int i = 0; i < 25; ++i) {
    auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    while (u == buyer) u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    sellers.push_back(Seller{u, 0, 20.0 + rng.next_double() * 10.0});
  }

  core::QueryContext ctx;
  util::Timer timer;
  for (auto& s : sellers) s.dist = oracle.distance(buyer, s.user, ctx).dist;
  std::cout << "scored " << sellers.size() << " sellers in "
            << util::fmt_fixed(timer.elapsed_us(), 0) << "us\n\n";

  // Rank: social proximity first (trust), then price.
  std::sort(sellers.begin(), sellers.end(), [](const Seller& a, const Seller& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.price < b.price;
  });

  std::cout << "buyer user" << buyer << " — top sellers by social proximity:\n";
  util::TextTable table({"rank", "seller", "hops", "price", "referral chain"});
  for (std::size_t rank = 0; rank < std::min<std::size_t>(5, sellers.size());
       ++rank) {
    const auto& s = sellers[rank];
    const auto p = oracle.path(buyer, s.user, ctx);
    std::string chain;
    for (std::size_t k = 0; k < p.path.size(); ++k) {
      chain += (k ? " > " : "") + ("user" + std::to_string(p.path[k]));
    }
    table.add(rank + 1, "user" + std::to_string(s.user),
              s.dist == kInfDistance ? "-" : std::to_string(s.dist),
              "$" + util::fmt_fixed(s.price, 2),
              chain.empty() ? "(unreachable)" : chain);
  }
  std::cout << table.to_string();
  std::cout << "\nShorter referral chains mean more trustworthy sellers "
               "(friends-of-friends beat strangers) — computable per listing "
               "because each query costs microseconds.\n";
  return 0;
}
