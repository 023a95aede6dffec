// M1 — micro-benchmarks of the primitives on the oracle's hot paths
// (google-benchmark): hash probes, stamped-set resets, truncated vicinity
// builds, point-to-point searches, and the vicinity-intersection kernels
// (hash-probe loop vs sorted-array merge vs galloping) across size skew.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "algo/bfs.h"
#include "algo/bidirectional_bfs.h"
#include "algo/dijkstra.h"
#include "core/landmarks.h"
#include "core/vicinity_builder.h"
#include "core/vicinity_store.h"
#include "gen/powerlaw_cluster.h"
#include "graph/transform.h"
#include "util/flat_hash.h"
#include "util/rng.h"
#include "util/visit_stamp.h"

using namespace vicinity;

namespace {

const graph::Graph& test_graph() {
  static const graph::Graph g = [] {
    util::Rng rng(7);
    return gen::powerlaw_cluster(20000, 6, 0.5, rng);
  }();
  return g;
}

void BM_FlatHashProbe(benchmark::State& state) {
  util::FlatHashMap<NodeId, Distance> map;
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    map.insert_or_assign(static_cast<NodeId>(rng.next_below(100000)), 3);
  }
  util::Rng probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.find(static_cast<NodeId>(probe.next_below(100000))));
  }
}
BENCHMARK(BM_FlatHashProbe);

void BM_StdUnorderedMapProbe(benchmark::State& state) {
  std::unordered_map<NodeId, Distance> map;
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    map.emplace(static_cast<NodeId>(rng.next_below(100000)), 3);
  }
  util::Rng probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.find(static_cast<NodeId>(probe.next_below(100000))));
  }
}
BENCHMARK(BM_StdUnorderedMapProbe);

void BM_StampedReset(benchmark::State& state) {
  util::StampedArray<Distance> arr(100000);
  for (auto _ : state) {
    arr.reset();
    arr.set(5, 1);
    benchmark::DoNotOptimize(arr.get(5));
  }
}
BENCHMARK(BM_StampedReset);

void BM_VicinityBuild(benchmark::State& state) {
  const auto& g = test_graph();
  util::Rng rng(11);
  const auto landmarks = core::sample_landmarks(
      g, static_cast<double>(state.range(0)),
      core::SamplingStrategy::kDegreeProportional, rng, 0.25);
  const auto info = core::nearest_landmarks(g, landmarks);
  core::VicinityBuilder builder(g);
  util::Rng pick(13);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    benchmark::DoNotOptimize(
        builder.build(u, info.dist[u], info.landmark[u]));
  }
}
BENCHMARK(BM_VicinityBuild)->Arg(4)->Arg(16);

void BM_PointToPointBfs(benchmark::State& state) {
  const auto& g = test_graph();
  algo::BfsRunner runner(g);
  util::Rng pick(17);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    benchmark::DoNotOptimize(runner.distance(s, t));
  }
}
BENCHMARK(BM_PointToPointBfs);

void BM_BidirectionalBfs(benchmark::State& state) {
  const auto& g = test_graph();
  algo::BidirectionalBfsRunner runner(g);
  util::Rng pick(19);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(pick.next_below(g.num_nodes()));
    benchmark::DoNotOptimize(runner.distance(s, t));
  }
}
BENCHMARK(BM_BidirectionalBfs);

void BM_BucketVsHeapDijkstra(benchmark::State& state) {
  static const graph::Graph weighted = [] {
    util::Rng rng(23);
    auto base = gen::powerlaw_cluster(10000, 5, 0.5, rng);
    util::Rng wrng(29);
    return graph::with_random_weights(base, wrng, 1, 8);
  }();
  algo::BucketDijkstraRunner bucket(weighted);
  algo::DijkstraRunner heap(weighted);
  util::Rng pick(31);
  const bool use_bucket = state.range(0) == 1;
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(pick.next_below(weighted.num_nodes()));
    const auto t = static_cast<NodeId>(pick.next_below(weighted.num_nodes()));
    if (use_bucket) {
      benchmark::DoNotOptimize(bucket.distance(s, t));
    } else {
      benchmark::DoNotOptimize(heap.distance(s, t));
    }
  }
}
BENCHMARK(BM_BucketVsHeapDijkstra)->Arg(0)->Arg(1);

// ---- Intersection kernels (the packed backend's hot path) ---------------
//
// Two vicinity-like sorted id arrays with parallel distances and a
// controlled overlap; args = {|iterated side|, |probed side|}, covering the
// balanced case and both skew directions. The hash-probe variant is the
// paper's per-member lookup loop; merge and gallop are the packed kernels.

struct IntersectFixture {
  std::vector<NodeId> a_nodes, b_nodes;
  std::vector<Distance> a_dists, b_dists;
  // The kernels read the distances byte-wide, as the built index stores
  // them (every value is at most 5).
  core::DistColumn a_col, b_col;
  util::FlatHashMap<NodeId, Distance> b_table;

  IntersectFixture(std::size_t na, std::size_t nb) : b_table(nb) {
    util::Rng rng(99);
    auto gen_arr = [&](std::size_t n, std::vector<NodeId>& ids,
                       std::vector<Distance>& dists) {
      NodeId cur = 0;
      for (std::size_t i = 0; i < n; ++i) {
        cur += 1 + static_cast<NodeId>(rng.next_below(7));  // ~29% overlap
        ids.push_back(cur);
        dists.push_back(1 + static_cast<Distance>(rng.next_below(5)));
      }
    };
    gen_arr(na, a_nodes, a_dists);
    gen_arr(nb, b_nodes, b_dists);
    a_col = core::DistColumn(a_dists);
    b_col = core::DistColumn(b_dists);
    for (std::size_t i = 0; i < nb; ++i) {
      b_table.insert_or_assign(b_nodes[i], b_dists[i]);
    }
  }
};

void BM_IntersectHashProbe(benchmark::State& state) {
  const IntersectFixture f(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    Distance best = kInfDistance;
    for (std::size_t i = 0; i < f.a_nodes.size(); ++i) {
      if (const Distance* d = f.b_table.find(f.a_nodes[i])) {
        best = std::min(best, dist_add(f.a_dists[i], *d));
      }
    }
    benchmark::DoNotOptimize(best);
  }
}

void BM_IntersectMerge(benchmark::State& state) {
  const IntersectFixture f(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detail::merge_intersect_min(
        f.a_nodes, f.a_col.view(), f.b_nodes, f.b_col.view()));
  }
}

void BM_IntersectGallop(benchmark::State& state) {
  const IntersectFixture f(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detail::gallop_intersect_min(
        f.a_nodes, f.a_col.view(), f.b_nodes, f.b_col.view()));
  }
}

void BM_IntersectAdaptive(benchmark::State& state) {
  const IntersectFixture f(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detail::intersect_sorted_min(
        f.a_nodes, f.a_col.view(), f.b_nodes, f.b_col.view()));
  }
}

// {iterated, probed}: balanced (paper's typical ∂Γ × Γ), mildly skewed, and
// hub-vs-leaf skew where galloping pays off.
#define INTERSECT_ARGS \
  ->Args({64, 64})->Args({64, 512})->Args({64, 4096})->Args({512, 512}) \
      ->Args({512, 8192})->Args({32, 32768})
BENCHMARK(BM_IntersectHashProbe) INTERSECT_ARGS;
BENCHMARK(BM_IntersectMerge) INTERSECT_ARGS;
BENCHMARK(BM_IntersectGallop) INTERSECT_ARGS;
BENCHMARK(BM_IntersectAdaptive) INTERSECT_ARGS;
#undef INTERSECT_ARGS

}  // namespace

BENCHMARK_MAIN();
