// A5 — §4 related-work trade-off, quantified.
//
// The paper positions itself against approximate oracles: "[12] returns
// paths with an absolute error of more than 3 hops on average; techniques
// with comparable accuracy [5,17,20] have a latency of tens to hundreds of
// milliseconds". This bench measures latency, accuracy and memory for:
//   vicinity oracle (this paper), ALT/A* [3,4], Thorup-Zwick k=2 [16],
//   Das-Sarma-style sketches [12], Potamias-style landmark estimation [11],
//   and bidirectional BFS [4]
// on the same graph with the same query pairs.
#include <iostream>
#include <unordered_map>

#include "algo/alt.h"
#include "algo/bfs.h"
#include "algo/bidirectional_bfs.h"
#include "baselines/landmark_est.h"
#include "baselines/sketch_oracle.h"
#include "baselines/tz_oracle.h"
#include "common.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "util/memory.h"
#include "util/stats.h"

using namespace vicinity;

int main(int argc, char** argv) {
  auto opt = bench::parse_args(argc, argv, "bench_related_work");
  if (opt.datasets.size() == 4) opt.datasets = {"dblp"};
  if (opt.alphas.empty()) opt.alphas = {16.0};
  // Full-index comparators need a graph small enough for n truncated
  // searches; the dblp profile at 1/20 scale fits comfortably.

  bench::print_header(
      "Related work (§4): latency / accuracy / memory trade-off",
      "vicinity oracle: exact with ~0.1-0.4ms; [12]-style sketches: "
      "similar latency, >3 hops mean error; comparable-accuracy techniques: "
      "tens-hundreds of ms");

  for (const auto& name : opt.datasets) {
    const auto profile = bench::cached_profile(name, opt.scale, opt.seed);
    const auto& g = profile.graph;
    std::cout << "graph: " << g.summary() << "\n\n";

    util::Rng rng(opt.seed + 41);
    const auto sample = bench::sample_nodes(g, opt.sample_nodes, rng);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (std::size_t j = i + 1; j < sample.size(); ++j) {
        pairs.emplace_back(sample[i], sample[j]);
      }
    }
    rng.shuffle(pairs);
    if (pairs.size() > std::min<std::size_t>(opt.max_pairs, 8000)) {
      pairs.resize(std::min<std::size_t>(opt.max_pairs, 8000));
    }

    // Ground truth for accuracy accounting.
    std::vector<Distance> truth(pairs.size());
    {
      std::unordered_map<NodeId, std::vector<Distance>> rows;
      for (const auto& [s, t] : pairs) {
        if (!rows.count(s)) rows[s] = algo::bfs(g, s).dist;
      }
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        truth[i] = rows[pairs[i].first][pairs[i].second];
      }
    }

    util::TextTable table({"technique", "build s", "memory", "query us",
                           "exact frac", "mean abs err", "answers paths?"});
    util::CsvWriter csv({"technique", "build_s", "memory_bytes", "query_us",
                         "exact_fraction", "mean_abs_error"});

    auto report = [&](const char* label, double build_s,
                      std::uint64_t memory_bytes, double query_us,
                      const std::vector<Distance>& est, bool paths) {
      std::uint64_t exact = 0, compared = 0;
      double err = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (truth[i] == kInfDistance || est[i] == kInfDistance) continue;
        ++compared;
        exact += est[i] == truth[i];
        err += static_cast<double>(est[i] > truth[i] ? est[i] - truth[i]
                                                     : truth[i] - est[i]);
      }
      const double exact_frac =
          compared ? static_cast<double>(exact) / compared : 0.0;
      const double mean_err = compared ? err / compared : 0.0;
      table.add(label, util::fmt_fixed(build_s, 2),
                util::fmt_bytes(memory_bytes), util::fmt_fixed(query_us, 2),
                util::fmt_fixed(exact_frac, 4), util::fmt_fixed(mean_err, 3),
                paths ? "yes" : "no");
      csv.add(label, build_s, memory_bytes, query_us, exact_frac, mean_err);
    };

    // Vicinity oracle (full index: a deployable instance).
    {
      core::OracleOptions oopt;
      oopt.alpha = opt.alphas[0];
      oopt.seed = opt.seed;
      oopt.fallback = core::Fallback::kBidirectionalBfs;
      util::Timer build;
      auto oracle = core::VicinityOracle::build(g, oopt);
      const double build_s = build.elapsed_seconds();
      std::vector<Distance> est(pairs.size());
      core::QueryContext ctx;
      util::Timer timer;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        est[i] = oracle.distance(pairs[i].first, pairs[i].second, ctx).dist;
      }
      report("vicinity oracle (this paper)", build_s,
             oracle.memory_stats().bytes,
             timer.elapsed_us() / static_cast<double>(pairs.size()), est,
             true);
    }
    // Bidirectional BFS [4].
    {
      algo::BidirectionalBfsRunner bidi(g);
      const std::size_t cap = std::min<std::size_t>(pairs.size(), 2000);
      std::vector<Distance> est(pairs.size(), kInfDistance);
      util::Timer timer;
      for (std::size_t i = 0; i < cap; ++i) {
        est[i] = bidi.distance(pairs[i].first, pairs[i].second).dist;
      }
      const double us = timer.elapsed_us() / static_cast<double>(cap);
      for (std::size_t i = cap; i < pairs.size(); ++i) est[i] = truth[i];
      report("bidirectional BFS [4]", 0.0, 0, us, est, true);
    }
    // ALT / A* with landmarks [3].
    {
      util::Timer build;
      algo::AltOracle alt(g, 8);
      const double build_s = build.elapsed_seconds();
      const std::size_t cap = std::min<std::size_t>(pairs.size(), 2000);
      std::vector<Distance> est(pairs.size(), kInfDistance);
      util::Timer timer;
      for (std::size_t i = 0; i < cap; ++i) {
        est[i] = alt.distance(pairs[i].first, pairs[i].second);
      }
      const double us = timer.elapsed_us() / static_cast<double>(cap);
      for (std::size_t i = cap; i < pairs.size(); ++i) est[i] = truth[i];
      report("ALT (A* + landmarks) [3]", build_s, alt.memory_bytes(), us, est,
             true);
    }
    // Thorup-Zwick k=2 [16].
    {
      util::Rng trng(opt.seed + 43);
      util::Timer build;
      baselines::TzOracle tz(g, trng);
      const double build_s = build.elapsed_seconds();
      std::vector<Distance> est(pairs.size());
      util::Timer timer;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        est[i] = tz.distance(pairs[i].first, pairs[i].second);
      }
      report("Thorup-Zwick k=2 [16]", build_s, tz.memory_bytes(),
             timer.elapsed_us() / static_cast<double>(pairs.size()), est,
             false);
    }
    // Das-Sarma-style sketches [12].
    {
      util::Rng srng(opt.seed + 47);
      util::Timer build;
      baselines::SketchOracle sk(g, srng, 2);
      const double build_s = build.elapsed_seconds();
      std::vector<Distance> est(pairs.size());
      util::Timer timer;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        est[i] = sk.distance(pairs[i].first, pairs[i].second);
      }
      report("sketch oracle [12]", build_s, sk.memory_bytes(),
             timer.elapsed_us() / static_cast<double>(pairs.size()), est,
             false);
    }
    // Potamias-style landmark estimation [11].
    {
      util::Timer build;
      baselines::LandmarkEstimator lm(g, 32);
      const double build_s = build.elapsed_seconds();
      std::vector<Distance> est(pairs.size());
      util::Timer timer;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        est[i] = lm.upper_bound(pairs[i].first, pairs[i].second);
      }
      report("landmark estimation [11]", build_s, lm.memory_bytes(),
             timer.elapsed_us() / static_cast<double>(pairs.size()), est,
             false);
    }

    std::cout << table.to_string();
    bench::maybe_write_csv(opt, csv, "related_work_" + name + ".csv");
  }
  std::cout << "\nShape check: only the vicinity oracle combines exactness "
               "with microsecond queries; approximate oracles trade hops of "
               "error for memory, and search baselines pay milliseconds.\n";
  return 0;
}
