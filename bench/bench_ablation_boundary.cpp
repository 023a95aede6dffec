// A1 — ablation of Algorithm 1's boundary optimization (Lemma 1).
//
// Compares the intersection loop iterating (a) the boundary of the smaller
// side, (b) the boundary of the source always, (c) the full vicinity —
// identical answers (Lemma 1), different probe counts and latency.
#include <iostream>

#include "common.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "util/stats.h"

using namespace vicinity;

int main(int argc, char** argv) {
  auto opt = bench::parse_args(argc, argv, "bench_ablation_boundary");
  if (opt.alphas.empty()) opt.alphas = {16.0};
  if (opt.datasets.size() == 4) opt.datasets = {"livejournal"};

  bench::print_header(
      "Ablation: boundary-only intersection (Algorithm 1 / Lemma 1)",
      "the paper stores boundary nodes so the intersection loop touches "
      "|∂Γ| <= |Γ| entries; answers must be identical");

  struct Config {
    const char* label;
    bool boundary, smaller;
  };
  const Config configs[] = {
      {"boundary+smaller-side", true, true},
      {"boundary, source-side", true, false},
      {"full-vicinity", false, true},
  };

  util::TextTable table({"dataset", "alpha", "variant", "lookups avg",
                         "query us", "mismatches"});
  util::CsvWriter csv({"dataset", "alpha", "variant", "lookups_avg",
                       "query_us"});

  for (const auto& name : opt.datasets) {
    const auto profile = bench::cached_profile(name, opt.scale, opt.seed);
    const auto& g = profile.graph;
    for (const double alpha : opt.alphas) {
      util::Rng rng(opt.seed + 5);
      const auto sample = bench::sample_nodes(g, opt.sample_nodes, rng);
      std::vector<std::pair<NodeId, NodeId>> pairs;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        for (std::size_t j = i + 1; j < sample.size(); ++j) {
          pairs.emplace_back(sample[i], sample[j]);
        }
      }
      rng.shuffle(pairs);
      if (pairs.size() > opt.max_pairs / 5) pairs.resize(opt.max_pairs / 5);

      std::vector<Distance> reference;
      for (const auto& cfg : configs) {
        core::OracleOptions oopt;
        oopt.alpha = alpha;
        oopt.seed = opt.seed;
        oopt.use_boundary_optimization = cfg.boundary;
        oopt.iterate_smaller_side = cfg.smaller;
        oopt.store_landmark_tables = false;
        auto oracle = core::VicinityOracle::build_for(g, oopt, sample);

        util::StreamingStats lookups;
        std::size_t mismatches = 0;
        core::QueryContext ctx;
        util::Timer timer;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          const auto r =
              oracle.distance(pairs[i].first, pairs[i].second, ctx);
          lookups.add(static_cast<double>(r.hash_lookups));
          if (reference.size() == pairs.size() && reference[i] != r.dist) {
            ++mismatches;
          }
          if (reference.size() < pairs.size()) reference.push_back(r.dist);
        }
        const double us = timer.elapsed_us() / static_cast<double>(pairs.size());
        table.add(name, alpha, cfg.label, util::fmt_fixed(lookups.mean(), 1),
                  util::fmt_fixed(us, 1), mismatches);
        csv.add(name, alpha, cfg.label, lookups.mean(), us);
      }
    }
  }
  std::cout << table.to_string();
  bench::maybe_write_csv(opt, csv, "ablation_boundary.csv");
  std::cout << "\nShape check: boundary iteration cuts probes without "
               "changing a single answer (mismatches = 0).\n";
  return 0;
}
