// A3 — ablation of the vicinity membership structure (§5 challenge: "can we
// further reduce the latency ... using more customized implementations of
// the data structures?").
//
// One packed oracle per (dataset, alpha). Its vicinities are copied into
// two bench-local per-node hash layouts — the GNU-STL unordered_map the
// paper used (§3.2) and an open-addressing flat table — and Algorithm 1's
// intersection step runs on the same pairs three ways: iterate ∂Γ(s) and
// probe Γ(t)'s table member by member, or merge/gallop ∂Γ(s) against
// Γ(t)'s sorted arena slice (VicinityStore::intersect_min). The three
// minima must agree on every pair; the program exits 1 when any differ.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/oracle.h"
#include "util/flat_hash.h"
#include "util/memory.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace vicinity;

namespace {

using StlTable = std::unordered_map<NodeId, core::StoredEntry>;
using FlatTable = util::FlatHashMap<NodeId, core::StoredEntry>;

/// Pairs of indices into the indexed sample.
using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

struct Layout {
  explicit Layout(const char* l) : label(l) {}
  const char* label;
  std::uint64_t bytes = 0;       ///< membership structure bytes
  double ns_per_pair = 0.0;      ///< best pass
  std::vector<Distance> minima;  ///< one per pair
};

/// Times `reps` passes of min_of(i, j) over every pair, keeping the best
/// pass and the minima of the last.
template <typename MinOf>
void time_layout(Layout& layout, const Pairs& pairs, unsigned reps,
                 MinOf&& min_of) {
  layout.minima.assign(pairs.size(), kInfDistance);
  double best_us = std::numeric_limits<double>::infinity();
  for (unsigned r = 0; r < std::max(1u, reps); ++r) {
    util::Timer timer;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      layout.minima[k] = min_of(pairs[k].first, pairs[k].second);
    }
    best_us = std::min(best_us, timer.elapsed_us());
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, pairs.size()));
  layout.ns_per_pair = best_us * 1e3 / n;
}

/// Algorithm 1's probe loop: one table lookup per member of ∂Γ(s).
template <typename Find>
Distance probe_min(const core::VicinityStore::BoundaryView& iter,
                   Find&& find) {
  Distance best = kInfDistance;
  for (std::size_t i = 0; i < iter.nodes.size(); ++i) {
    if (const core::StoredEntry* e = find(iter.nodes[i])) {
      best = std::min(best, dist_add(iter.dists[i], e->dist));
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  auto opt = bench::parse_args(argc, argv, "bench_ablation_hash");
  if (opt.alphas.empty()) opt.alphas = {16.0};
  if (opt.datasets.size() == 4) opt.datasets = {"livejournal"};

  bench::print_header(
      "Ablation: vicinity membership structure (std::unordered_map vs flat "
      "hash vs packed arena)",
      "the paper used GNU C++ STL hash tables and left customized data "
      "structures as future work (§5)");

  util::TextTable table({"dataset", "alpha", "layout", "intersect ns",
                         "membership bytes"});
  util::CsvWriter csv({"dataset", "alpha", "layout", "intersect_ns",
                       "membership_bytes"});
  std::size_t mismatches = 0;

  for (const auto& name : opt.datasets) {
    const auto profile = bench::cached_profile(name, opt.scale, opt.seed);
    const auto& g = profile.graph;
    for (const double alpha : opt.alphas) {
      util::Rng rng(opt.seed + 23);
      const auto sample = bench::sample_nodes(g, opt.sample_nodes, rng);
      Pairs pairs;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        for (std::size_t j = i + 1; j < sample.size(); ++j) {
          pairs.emplace_back(i, j);
        }
      }
      rng.shuffle(pairs);
      if (pairs.size() > opt.max_pairs / 2) pairs.resize(opt.max_pairs / 2);

      core::OracleOptions oopt;
      oopt.alpha = alpha;
      oopt.seed = opt.seed;
      oopt.store_landmark_tables = false;
      const auto oracle = core::VicinityOracle::build_for(g, oopt, sample);
      const core::VicinityStore& store = oracle.store();

      // Per-node hash tables over the same entries, one per sample node.
      std::vector<StlTable> stl(sample.size());
      std::vector<FlatTable> flat(sample.size());
      Layout stl_layout{"std::unordered_map (paper)"};
      Layout flat_layout{"flat open-addressing"};
      Layout packed_layout{"packed sorted arena"};
      for (std::size_t i = 0; i < sample.size(); ++i) {
        stl[i].reserve(store.vicinity_size(sample[i]));
        flat[i].reserve(store.vicinity_size(sample[i]));
        store.for_each_member(sample[i],
                              [&](NodeId v, const core::StoredEntry& e) {
                                stl[i].emplace(v, e);
                                flat[i].insert_or_assign(v, e);
                              });
        // unordered_map: bucket array + one heap node per entry (next
        // pointer, key/value, allocator overhead).
        stl_layout.bytes +=
            stl[i].bucket_count() * sizeof(void*) +
            stl[i].size() *
                (sizeof(std::pair<const NodeId, core::StoredEntry>) + 16);
        flat_layout.bytes += flat[i].memory_bytes();
      }
      packed_layout.bytes = store.memory_bytes();

      // Each layout iterates ∂Γ(s) from the same boundary view, so the
      // three minima must be identical pair by pair.
      const auto stl_min = [&](std::size_t i, std::size_t j) {
        return probe_min(store.boundary(sample[i]), [&](NodeId v) {
          const auto it = stl[j].find(v);
          return it == stl[j].end() ? nullptr : &it->second;
        });
      };
      const auto flat_min = [&](std::size_t i, std::size_t j) {
        return probe_min(store.boundary(sample[i]),
                         [&](NodeId v) { return flat[j].find(v); });
      };
      const auto packed_min = [&](std::size_t i, std::size_t j) {
        std::uint32_t lookups = 0;
        return store.intersect_min(store.boundary(sample[i]), sample[j],
                                   lookups);
      };
      time_layout(stl_layout, pairs, opt.reps, stl_min);
      time_layout(flat_layout, pairs, opt.reps, flat_min);
      time_layout(packed_layout, pairs, opt.reps, packed_min);

      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const Distance a = stl_layout.minima[k];
        if (a == flat_layout.minima[k] && a == packed_layout.minima[k]) {
          continue;
        }
        if (mismatches++ == 0) {
          std::cerr << "minimum mismatch on " << name << " alpha " << alpha
                    << " pair " << sample[pairs[k].first] << "->"
                    << sample[pairs[k].second] << ": stl " << a << ", flat "
                    << flat_layout.minima[k] << ", packed "
                    << packed_layout.minima[k] << "\n";
        }
      }
      for (const Layout* l : {&stl_layout, &flat_layout, &packed_layout}) {
        table.add(name, alpha, l->label, util::fmt_fixed(l->ns_per_pair, 1),
                  util::fmt_bytes(l->bytes));
        csv.add(name, alpha, l->label, l->ns_per_pair, l->bytes);
      }
    }
  }
  std::cout << table.to_string();
  bench::maybe_write_csv(opt, csv, "ablation_hash.csv");
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " pair(s) with differing intersection minima\n";
    return 1;
  }
  std::cout << "\nAll three layouts agree on every pair's intersection "
               "minimum.\nExpected shape (not enforced): the packed sorted "
               "arena beats both per-node hash layouts on intersection time "
               "and bytes (§5 challenge).\n";
  return 0;
}
