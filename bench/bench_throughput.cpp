// bench_throughput — concurrent batch-query serving (QueryEngine over the
// backend-agnostic AnyOracle interface).
//
// Measures queries/sec as a function of thread count on an RMAT graph
// (default: scale 18 -> ~148k-node largest component), plus per-query
// latency percentiles (p50/p90/p99), and verifies that the 1-thread and
// max-thread batch answers are bit-identical. The paper serves one query
// per ~microsecond from one thread (§3.2); this bench shows the same index
// scaling across cores with zero shared mutable state.
//
// --directed serves the vicinity oracle over a directed RMAT (the §5
// challenge); --backend tz|sketch|landmarks serves a related-work baseline
// through the identical engine — the apples-to-apples serving comparison
// (same workload, same batching, same stats).
//
// Backends with paths also time path() single-threaded over the latency
// sample, checking every path against the graph and the batch distance
// (exit 1 on any invalid or mislength path).
//
// --zipf skews sources/targets Zipf(theta) over node ids (bench/zipf.h);
// --cache-mb adds a hot-pair result cache section: cached vs uncached
// batch qps and single-query latency at the max thread count (bit-identity
// enforced against the uncached baseline), the steady-state hit rate, and
// an update-churn sweep — toggling a reserved non-edge between query
// chunks to show epoch invalidation collapsing and recovering the hit
// rate under a live update stream.
//
// Usage:
//   bench_throughput [--scale N] [--edges-per-node K] [--queries Q]
//                    [--threads 1,2,4,8] [--alpha A] [--seed S] [--reps R]
//                    [--directed] [--backend vicinity|tz|sketch|landmarks]
//                    [--zipf THETA] [--cache-mb MB] [--cache-ways W]
//                    [--json PATH|-] [--quick]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/path.h"
#include "baselines/baseline_adapters.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "util/memory.h"
#include "util/stats.h"
#include "util/timer.h"
#include "zipf.h"

namespace {

using namespace vicinity;

struct Options {
  // scale-18 RMAT at 8 edges/node leaves a ~148k-node largest component
  // with social-network-like mean degree (~27) — comfortably past the
  // 100k-node target while keeping p99 latency sub-millisecond.
  unsigned scale = 18;
  std::uint64_t edges_per_node = 8;
  std::size_t queries = 200'000;
  std::vector<unsigned> threads = {1, 2, 4, 8};
  double alpha = 4.0;
  std::uint64_t seed = 42;
  unsigned reps = 3;
  bool directed = false;
  std::string backend = "vicinity";       ///< vicinity|tz|sketch|landmarks
  double zipf = 0.0;                      ///< workload skew; 0 = uniform
  std::size_t cache_mb = 0;               ///< 0 = no cache section
  unsigned cache_ways = 8;
  std::string json;                       ///< empty = no JSON; "-" = stdout
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scale N] [--edges-per-node K] [--queries Q]\n"
               "       [--threads 1,2,4,8] [--alpha A] [--seed S] [--reps R]\n"
               "       [--directed] [--backend vicinity|tz|sketch|landmarks]\n"
               "       [--zipf THETA] [--cache-mb MB] [--cache-ways W]\n"
               "       [--json PATH|-] [--quick]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_and_exit(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale") {
      o.scale = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (arg == "--edges-per-node") {
      o.edges_per_node = std::stoull(next_value(i));
    } else if (arg == "--queries") {
      o.queries = std::stoull(next_value(i));
    } else if (arg == "--threads") {
      o.threads.clear();
      std::stringstream ss(next_value(i));
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        o.threads.push_back(static_cast<unsigned>(std::stoul(tok)));
      }
      if (o.threads.empty()) usage_and_exit(argv[0]);
    } else if (arg == "--alpha") {
      o.alpha = std::stod(next_value(i));
    } else if (arg == "--seed") {
      o.seed = std::stoull(next_value(i));
    } else if (arg == "--reps") {
      o.reps = std::max(1u, static_cast<unsigned>(std::stoul(next_value(i))));
    } else if (arg == "--directed") {
      o.directed = true;
    } else if (arg == "--backend") {
      o.backend = next_value(i);
      if (o.backend != "vicinity" && o.backend != "tz" &&
          o.backend != "sketch" && o.backend != "landmarks") {
        std::cerr << "unknown backend: " << o.backend << "\n";
        usage_and_exit(argv[0]);
      }
    } else if (arg == "--zipf") {
      o.zipf = std::stod(next_value(i));
    } else if (arg == "--cache-mb") {
      o.cache_mb = std::stoul(next_value(i));
    } else if (arg == "--cache-ways") {
      o.cache_ways = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (arg == "--json") {
      o.json = next_value(i);
    } else if (arg == "--quick") {
      o.scale = 13;
      o.queries = 20'000;
      o.reps = 2;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage_and_exit(argv[0]);
    }
  }
  if (o.directed && o.backend != "vicinity") {
    std::cerr << "--directed supports only the vicinity backend\n";
    usage_and_exit(argv[0]);
  }
  return o;
}

/// Index open-path comparison for VCNIDX06 region containers: best-of-reps
/// wall time and resident-set growth of a zero-copy mmap open vs a full
/// heap deserialize (which also deep-validates) of the same file.
struct OpenBench {
  bool ran = false;
  std::uint64_t file_bytes = 0;
  double mapped_ms = 0.0;
  double heap_ms = 0.0;
  std::uint64_t mapped_rss_delta = 0;  ///< RSS growth while the oracle lives
  std::uint64_t heap_rss_delta = 0;
};

OpenBench bench_index_open(const std::shared_ptr<core::AnyOracle>& oracle,
                           const graph::Graph& g, unsigned reps) {
  OpenBench b;
  const auto path =
      std::filesystem::temp_directory_path() / "vicinity_bench_open.idx";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    oracle->save(out);
  }
  b.file_bytes = std::filesystem::file_size(path);
  auto rss_delta = [](std::uint64_t before) {
    const std::uint64_t after = util::current_rss_bytes();
    return after > before ? after - before : std::uint64_t{0};
  };
  for (unsigned rep = 0; rep < reps; ++rep) {
    {
      const std::uint64_t before = util::current_rss_bytes();
      util::Timer t;
      const auto mapped = core::load_any_oracle_file(path.string(), g);
      const double ms = t.elapsed_ms();
      if (rep == 0 || ms < b.mapped_ms) b.mapped_ms = ms;
      b.mapped_rss_delta = std::max(b.mapped_rss_delta, rss_delta(before));
    }
    {
      core::OpenOptions heap_opts;
      heap_opts.mode = core::OpenMode::kHeap;
      const std::uint64_t before = util::current_rss_bytes();
      util::Timer t;
      const auto heap = core::load_any_oracle_file(path.string(), g, heap_opts);
      const double ms = t.elapsed_ms();
      if (rep == 0 || ms < b.heap_ms) b.heap_ms = ms;
      b.heap_rss_delta = std::max(b.heap_rss_delta, rss_delta(before));
    }
  }
  std::filesystem::remove(path);
  b.ran = true;
  return b;
}

bool results_identical(const std::vector<core::QueryResult>& a,
                       const std::vector<core::QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dist != b[i].dist || a[i].method != b[i].method ||
        a[i].hash_lookups != b[i].hash_lookups || a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

struct BuiltBackend {
  std::shared_ptr<core::AnyOracle> oracle;
  std::size_t landmarks = 0;  ///< 0 for backends without landmark sets
};

BuiltBackend build_backend(const Options& opt, const graph::Graph& g) {
  BuiltBackend b;
  if (opt.backend == "vicinity") {
    core::OracleOptions oracle_opt;
    oracle_opt.alpha = opt.alpha;
    oracle_opt.seed = opt.seed + 1;
    oracle_opt.fallback = core::Fallback::kBidirectionalBfs;
    oracle_opt.build_threads = 0;  // hardware concurrency
    auto o = core::VicinityOracle::build(g, oracle_opt);
    b.landmarks = o.build_stats().num_landmarks;
    b.oracle = core::make_any_oracle(std::move(o));
  } else if (opt.backend == "tz") {
    util::Rng rng(opt.seed + 1);
    b.oracle = baselines::make_any_oracle(baselines::TzOracle(g, rng), g);
  } else if (opt.backend == "sketch") {
    util::Rng rng(opt.seed + 1);
    b.oracle = baselines::make_any_oracle(baselines::SketchOracle(g, rng), g);
  } else {
    b.landmarks = 16;
    b.oracle = baselines::make_any_oracle(
        baselines::LandmarkEstimator(g, static_cast<unsigned>(b.landmarks)),
        g);
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  std::printf("== bench_throughput: concurrent batch queries ==\n");
  util::Rng grng(opt.seed);
  gen::RmatParams params;
  params.directed = opt.directed;
  util::Timer gen_timer;
  auto raw = gen::rmat(opt.scale, opt.edges_per_node * (std::uint64_t{1} << opt.scale),
                       params, grng);
  // Non-const: the cache section's churn sweep applies (and undoes) edge
  // toggles through QueryEngine::apply_update.
  auto g = graph::largest_component(raw).graph;
  std::printf("graph: rmat scale=%u%s -> LCC n=%u, arcs=%llu (%.1fs)\n",
              opt.scale, opt.directed ? " (directed)" : "", g.num_nodes(),
              static_cast<unsigned long long>(g.num_arcs()),
              gen_timer.elapsed_seconds());

  util::Timer build_timer;
  const BuiltBackend built = build_backend(opt, g);
  const double build_seconds = build_timer.elapsed_seconds();
  std::printf(
      "backend '%s' [%s]: alpha=%.1f, %zu landmarks, built in %.1fs\n",
      built.oracle->backend_name(),
      built.oracle->capabilities().to_string().c_str(), opt.alpha,
      built.landmarks, build_seconds);

  // Open-path bench: only the vicinity backends persist an index.
  OpenBench open_bench;
  if (opt.backend == "vicinity") {
    open_bench = bench_index_open(built.oracle, g, opt.reps);
    std::printf(
        "index open (%s file): mmap %.2fms (+%s RSS) vs heap %.1fms "
        "(+%s RSS) -> %.0fx faster\n",
        util::fmt_bytes(open_bench.file_bytes).c_str(), open_bench.mapped_ms,
        util::fmt_bytes(open_bench.mapped_rss_delta).c_str(),
        open_bench.heap_ms, util::fmt_bytes(open_bench.heap_rss_delta).c_str(),
        open_bench.mapped_ms > 0 ? open_bench.heap_ms / open_bench.mapped_ms
                                 : 0.0);
  }

  const unsigned max_threads =
      *std::max_element(opt.threads.begin(), opt.threads.end());
  core::QueryEngine engine(built.oracle, max_threads);

  util::Rng qrng(opt.seed + 2);
  const bench::ZipfSampler zipf(g.num_nodes(), opt.zipf);
  std::vector<core::Query> queries(opt.queries);
  for (auto& q : queries) {
    q.s = static_cast<NodeId>(zipf.sample(qrng));
    q.t = static_cast<NodeId>(zipf.sample(qrng));
  }

  // Warmup: touch the index, size every lane's scratch.
  engine.run_batch(queries, max_threads);

  // Per-query latency distribution (single lane; each query timed alone).
  const std::size_t latency_sample = std::min<std::size_t>(queries.size(), 50'000);
  util::SampleSet latency_us;
  latency_us.reserve(latency_sample);
  {
    core::QueryContext ctx;
    for (std::size_t i = 0; i < latency_sample; ++i) {
      util::Timer t;
      (void)engine.oracle().distance(queries[i].s, queries[i].t, ctx);
      latency_us.add(t.elapsed_us());
    }
  }
  std::printf("latency (1 thread, %zu samples): p50=%.2fus p90=%.2fus "
              "p99=%.2fus max=%.2fus\n",
              latency_sample, latency_us.percentile(50),
              latency_us.percentile(90), latency_us.percentile(99),
              latency_us.max());

  // Throughput vs thread count. Best-of-reps wall time; every result vector
  // must match the 1-thread baseline bit for bit.
  std::vector<core::QueryResult> baseline = engine.run_batch(queries, 1);
  struct Row {
    unsigned threads;
    double qps;
    double seconds;
    bool identical;
  };
  std::vector<Row> rows;
  std::printf("%8s %14s %10s %10s %10s\n", "threads", "queries/s", "seconds",
              "speedup", "identical");
  for (const unsigned t : opt.threads) {
    double best = -1.0;
    bool identical = true;
    for (unsigned rep = 0; rep < opt.reps; ++rep) {
      util::Timer timer;
      const auto results = engine.run_batch(queries, t);
      const double secs = timer.elapsed_seconds();
      if (best < 0 || secs < best) best = secs;
      identical = identical && results_identical(results, baseline);
    }
    const double qps = static_cast<double>(queries.size()) / best;
    rows.push_back(Row{t, qps, best, identical});
    std::printf("%8u %14.0f %10.3f %9.2fx %10s\n", t, qps, best,
                qps / rows.front().qps, identical ? "yes" : "NO");
  }

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.identical;

  // PATH latency (single lane; each path() timed alone) over the latency
  // sample. Every path must run s..t over real arcs with the length of the
  // batch distance, and be empty exactly when that distance is infinite.
  util::SampleSet path_us;
  std::size_t bad_paths = 0;
  if (built.oracle->capabilities().has(core::Capability::kPaths)) {
    path_us.reserve(latency_sample);
    core::QueryContext ctx;
    for (std::size_t i = 0; i < latency_sample; ++i) {
      const auto [s, t] = queries[i];
      util::Timer timer;
      const core::PathResult p = engine.oracle().path(s, t, ctx);
      path_us.add(timer.elapsed_us());
      const Distance want = baseline[i].dist;
      const bool ok = want == kInfDistance
                          ? p.path.empty()
                          : algo::is_valid_path(g, p.path, s, t) &&
                                algo::path_length(g, p.path) == want;
      bad_paths += ok ? 0 : 1;
    }
    std::printf("path latency (1 thread, %zu samples): p50=%.2fus p90=%.2fus "
                "p99=%.2fus max=%.2fus, %zu invalid\n",
                latency_sample, path_us.percentile(50),
                path_us.percentile(90), path_us.percentile(99), path_us.max(),
                bad_paths);
  }

  // Result-cache section: the same workload through a cache-fronted engine
  // over the same oracle. Bit-identity against the uncached baseline is
  // enforced; the churn sweep shows epoch invalidation under updates.
  struct ChurnRow {
    unsigned updates_per_round;
    double qps;
    double hit_rate;
  };
  struct CacheBench {
    bool ran = false;
    double uncached_qps = 0.0;
    double cached_qps = 0.0;
    double hit_rate = 0.0;
    double uncached_p50 = 0.0, uncached_p99 = 0.0;
    double cached_p50 = 0.0, cached_p99 = 0.0;
    bool identical = true;
    std::vector<ChurnRow> churn;
  };
  CacheBench cb;
  if (opt.cache_mb > 0) {
    core::QueryEngineOptions eo;
    eo.threads = max_threads;
    eo.enable_cache = true;
    eo.cache.capacity_bytes = opt.cache_mb << 20;
    eo.cache.ways = opt.cache_ways;
    core::QueryEngine cached(built.oracle, eo);
    cache::ResultCache& rc = *cached.result_cache();
    std::printf("== result cache: %zu MiB, %u ways, %zu entries, "
                "%zu shards ==\n",
                opt.cache_mb, static_cast<unsigned>(rc.ways()),
                rc.capacity_entries(), rc.shard_count());

    for (const Row& r : rows) {
      if (r.threads == max_threads) cb.uncached_qps = r.qps;
    }

    // Warm fill at the current epoch, then timed repeat passes.
    cached.run_batch(queries, max_threads);
    rc.reset_counters();
    double best = -1.0;
    for (unsigned rep = 0; rep < opt.reps; ++rep) {
      util::Timer timer;
      const auto results = cached.run_batch(queries, max_threads);
      const double secs = timer.elapsed_seconds();
      if (best < 0 || secs < best) best = secs;
      cb.identical = cb.identical && results_identical(results, baseline);
    }
    cb.cached_qps = static_cast<double>(queries.size()) / best;
    const cache::ResultCacheCounters warm = rc.counters();
    cb.hit_rate = warm.hit_rate();
    std::printf("warm batches (%u threads): %.0f qps cached vs %.0f qps "
                "uncached (%.2fx), hit rate %.3f, %s\n",
                max_threads, cb.cached_qps, cb.uncached_qps,
                cb.uncached_qps > 0 ? cb.cached_qps / cb.uncached_qps : 0.0,
                cb.hit_rate, cb.identical ? "identical" : "MISMATCH");

    // Single-query latency through run_batch-of-1 on both engines — the
    // identical code path, so the delta is purely the cache probe.
    {
      const std::size_t n = std::min<std::size_t>(queries.size(), 20'000);
      util::SampleSet cached_lat, uncached_lat;
      core::QueryResult one[1];
      for (std::size_t i = 0; i < n; ++i) {
        util::Timer t;
        cached.run_batch(std::span(&queries[i], 1), std::span(one, 1), 1);
        cached_lat.add(t.elapsed_us());
      }
      for (std::size_t i = 0; i < n; ++i) {
        util::Timer t;
        engine.run_batch(std::span(&queries[i], 1), std::span(one, 1), 1);
        uncached_lat.add(t.elapsed_us());
      }
      cb.cached_p50 = cached_lat.percentile(50);
      cb.cached_p99 = cached_lat.percentile(99);
      cb.uncached_p50 = uncached_lat.percentile(50);
      cb.uncached_p99 = uncached_lat.percentile(99);
      std::printf("single-query (batch-of-1): cached p50=%.2fus p99=%.2fus "
                  "vs uncached p50=%.2fus p99=%.2fus\n",
                  cb.cached_p50, cb.cached_p99, cb.uncached_p50,
                  cb.uncached_p99);
    }

    // Churn sweep: run the workload in 8 chunks, toggling a reserved
    // non-edge U times between chunks. Any U > 0 advances the epoch, so
    // the whole cache goes stale after every chunk — the worst case for
    // epoch invalidation — and the hit rate degrades to the within-chunk
    // repeat rate. Toggle counts are even so the graph (and therefore
    // every later answer) ends exactly where it started.
    if (built.oracle->capabilities().has(core::Capability::kUpdatable)) {
      NodeId v = 1;
      while (v < g.num_nodes() && g.has_edge(0, v)) ++v;
      if (v < g.num_nodes()) {
        constexpr std::size_t kChunks = 8;
        const std::size_t chunk =
            std::max<std::size_t>(1, queries.size() / kChunks);
        for (const unsigned upd : {0u, 2u, 16u, 64u}) {
          rc.clear();
          cached.run_batch(queries, max_threads);  // warm at current epoch
          rc.reset_counters();
          util::Timer timer;
          for (std::size_t lo = 0; lo < queries.size(); lo += chunk) {
            const std::size_t hi = std::min(lo + chunk, queries.size());
            (void)cached.run_batch(
                std::span(queries.data() + lo, hi - lo), max_threads);
            for (unsigned u = 0; u < upd; ++u) {
              (void)cached.apply_update(
                  g, u % 2 == 0 ? core::GraphUpdate::insert(0, v)
                                : core::GraphUpdate::remove(0, v));
            }
          }
          const double secs = timer.elapsed_seconds();
          const cache::ResultCacheCounters c = rc.counters();
          ChurnRow row{upd,
                       static_cast<double>(queries.size()) / secs,
                       c.hit_rate()};
          cb.churn.push_back(row);
          std::printf("churn: %3u updates/chunk -> %.0f qps, hit rate "
                      "%.3f\n",
                      row.updates_per_round, row.qps, row.hit_rate);
        }
      }
    }
    cb.ran = true;
    all_identical = all_identical && cb.identical;
  }

  if (!opt.json.empty()) {
    std::ostringstream js;
    js << "{\n"
       << "  \"graph\": {\"generator\": \"rmat\", \"scale\": " << opt.scale
       << ", \"nodes\": " << g.num_nodes() << ", \"arcs\": " << g.num_arcs()
       << ", \"directed\": " << (opt.directed ? "true" : "false") << "},\n"
       << "  \"backend\": \"" << built.oracle->backend_name() << "\",\n"
       << "  \"oracle\": {\"alpha\": " << opt.alpha
       << ", \"landmarks\": " << built.landmarks
       << ", \"build_seconds\": " << build_seconds << "},\n"
       << "  \"queries\": " << queries.size() << ",\n"
       << "  \"latency_us\": {\"p50\": " << latency_us.percentile(50)
       << ", \"p90\": " << latency_us.percentile(90)
       << ", \"p99\": " << latency_us.percentile(99)
       << ", \"max\": " << latency_us.max() << "},\n";
    if (!path_us.empty()) {
      js << "  \"path_latency_us\": {\"p50\": " << path_us.percentile(50)
         << ", \"p99\": " << path_us.percentile(99)
         << ", \"invalid\": " << bad_paths << "},\n";
    }
    if (open_bench.ran) {
      js << "  \"index_open\": {\"file_bytes\": " << open_bench.file_bytes
         << ", \"mapped_ms\": " << open_bench.mapped_ms
         << ", \"heap_ms\": " << open_bench.heap_ms << ", \"speedup\": "
         << (open_bench.mapped_ms > 0
                 ? open_bench.heap_ms / open_bench.mapped_ms
                 : 0.0)
         << ", \"mapped_rss_delta_bytes\": " << open_bench.mapped_rss_delta
         << ", \"heap_rss_delta_bytes\": " << open_bench.heap_rss_delta
         << "},\n";
    }
    js << "  \"throughput\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      js << (i ? ", " : "") << "{\"threads\": " << rows[i].threads
         << ", \"qps\": " << rows[i].qps
         << ", \"seconds\": " << rows[i].seconds
         << ", \"identical\": " << (rows[i].identical ? "true" : "false")
         << "}";
    }
    js << "],\n";
    if (cb.ran) {
      js << "  \"cache\": {\"mb\": " << opt.cache_mb
         << ", \"ways\": " << opt.cache_ways
         << ", \"zipf_theta\": " << opt.zipf
         << ", \"uncached_qps\": " << cb.uncached_qps
         << ", \"cached_qps\": " << cb.cached_qps << ", \"speedup\": "
         << (cb.uncached_qps > 0 ? cb.cached_qps / cb.uncached_qps : 0.0)
         << ", \"hit_rate\": " << cb.hit_rate
         << ",\n    \"latency_us\": {\"uncached_p50\": " << cb.uncached_p50
         << ", \"uncached_p99\": " << cb.uncached_p99
         << ", \"cached_p50\": " << cb.cached_p50
         << ", \"cached_p99\": " << cb.cached_p99 << "},\n    \"churn\": [";
      for (std::size_t i = 0; i < cb.churn.size(); ++i) {
        js << (i ? ", " : "")
           << "{\"updates_per_round\": " << cb.churn[i].updates_per_round
           << ", \"qps\": " << cb.churn[i].qps
           << ", \"hit_rate\": " << cb.churn[i].hit_rate << "}";
      }
      js << "],\n    \"identical\": " << (cb.identical ? "true" : "false")
         << "},\n";
    }
    js << "  \"all_identical\": " << (all_identical ? "true" : "false")
       << "\n}\n";
    if (opt.json == "-") {
      std::cout << js.str();
    } else {
      std::ofstream out(opt.json);
      if (!out) {
        std::cerr << "cannot write " << opt.json << "\n";
        return 1;
      }
      out << js.str();
      std::printf("json written to %s\n", opt.json.c_str());
    }
  }

  if (!all_identical) {
    std::cerr << "FAIL: thread counts disagreed on at least one answer\n";
    return 1;
  }
  if (bad_paths != 0) {
    std::cerr << "FAIL: " << bad_paths
              << " paths were invalid or differed from the batch distance\n";
    return 1;
  }
  return 0;
}
