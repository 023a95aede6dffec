// Configuration for the vicinity oracle (paper §2.2, §3.1 and the §5
// research challenges exposed as options).
#pragma once

#include <cstdint>

namespace vicinity::core {

/// How the landmark set L is drawn (§2.2). The paper uses degree-
/// proportional sampling; uniform and top-degree are ablation variants
/// (bench_ablation_sampling).
enum class SamplingStrategy {
  kDegreeProportional,  ///< p_s(u) = c * deg(u) / (alpha * sqrt(n))  [paper]
  kUniform,             ///< same expected |L|, degree-independent
  kTopDegree,           ///< deterministic: the |L| highest-degree nodes
};

/// Vicinity-storage layout. The store has one: every vicinity is a sorted
/// slice of one shared arena (core/vicinity_store.h), the answer to the
/// paper's §5 "more customized data structures" challenge; its §3.2
/// GNU-STL hash tables live on only as bench_ablation_hash's baseline.
/// The enumerator keeps value 2, the store-layout byte every index file
/// records; core::upgrade_index also accepts a VCNIDX02-04 file recording
/// the retired hash-layout bytes 0 and 1 and converts it to this layout.
enum class StoreBackend {
  kPacked = 2,
};

/// What to do when vicinities do not intersect (the <0.1% of queries the
/// paper leaves to companion techniques, footnote 1).
enum class Fallback {
  kNone,               ///< report not-found
  /// Exact search: the [4] baseline, bidirectional BFS, on unweighted
  /// graphs and bidirectional Dijkstra on weighted ones.
  kBidirectionalBfs,
  kLandmarkEstimate,   ///< approximate upper bound via nearest landmarks
};

struct OracleOptions {
  /// Vicinity size parameter: expected |Γ(u)| ≈ alpha * sqrt(n) (§2.2).
  double alpha = 4.0;

  /// Constant c in p_s(u) = c * deg(u) / (alpha * sqrt(n)). The paper's
  /// §2.2 expression simplifies to c = 2 while its |L| estimate implies
  /// c = 1/2 — the two are mutually inconsistent by 4x. Because vicinities
  /// stop at whole BFS levels, the constant that actually reproduces the
  /// paper's E|Γ(u)| ≈ α·√n at laptop-scale graph sizes is c = 0.25 (the
  /// calibration is measured in EXPERIMENTS.md); that is the default.
  double sampling_constant = 0.25;

  SamplingStrategy strategy = SamplingStrategy::kDegreeProportional;
  /// Kept for source compatibility with callers that assign it: the store
  /// has one layout, and nothing reads this field.
  StoreBackend backend = StoreBackend::kPacked;

  /// Store per-landmark distance tables so conditions (1)-(2) of
  /// Algorithm 1 answer in O(1). Disable for vicinity-property studies
  /// that never query through landmarks (Figure 2 benches).
  bool store_landmark_tables = true;

  /// Iterate only boundary nodes during intersection (Algorithm 1 /
  /// Lemma 1). Disabling falls back to full-vicinity iteration
  /// (bench_ablation_boundary).
  bool use_boundary_optimization = true;

  /// Probe from the side with the smaller iteration set.
  bool iterate_smaller_side = true;

  Fallback fallback = Fallback::kNone;

  /// Dynamic updates (apply_update): when one edge insert/delete invalidates
  /// more than this fraction of the indexed vicinities, fall back to
  /// rebuilding every vicinity (landmarks kept) instead of repairing them
  /// one by one — the targeted-rebuild threshold of the follow-up paper.
  /// Must be >= 0; values >= 1 disable the fallback entirely.
  double update_rebuild_fraction = 0.25;

  /// Seed for landmark sampling (and nothing else).
  std::uint64_t seed = 42;

  /// Worker threads for vicinity construction; 0 = hardware concurrency.
  unsigned build_threads = 1;
};

}  // namespace vicinity::core
