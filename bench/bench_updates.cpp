// bench_updates — dynamic-update subsystem throughput (core/dynamic.h).
//
// Streams randomized edge inserts/deletes through QueryEngine::apply_update
// on an RMAT graph and reports updates/sec (split by kind), repair
// footprints (vicinities rebuilt, boundary patches, landmark rows), and
// post-update query latency (p50/p99) so regressions in either the repair
// path or the repaired index's serving quality show up in one JSON blob.
// Deleted edges are picked node-uniform on one endpoint with a uniform
// neighbor on the other — the neighbor side still skews toward hubs (they
// appear in many adjacency lists), which is the hard case: hub endpoints
// sit in thousands of vicinities.
//
// Usage:
//   bench_updates [--scale N] [--edges-per-node K] [--updates U]
//                 [--queries Q] [--alpha A] [--seed S] [--json PATH|-]
//                 [--quick]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/query_engine.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace vicinity;

struct Options {
  unsigned scale = 16;  // ~40k-node largest component at 8 edges/node
  std::uint64_t edges_per_node = 8;
  std::size_t updates = 1000;
  std::size_t queries = 20'000;
  double alpha = 4.0;
  std::uint64_t seed = 42;
  std::string json;  ///< empty = no JSON; "-" = stdout
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scale N] [--edges-per-node K] [--updates U]\n"
               "       [--queries Q] [--alpha A] [--seed S] [--json PATH|-]\n"
               "       [--quick]\n";
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
    } else if (arg == "--updates") {
      o.updates = std::stoull(next_value(i));
    } else if (arg == "--queries") {
      o.queries = std::stoull(next_value(i));
    } else if (arg == "--alpha") {
      o.alpha = std::stod(next_value(i));
    } else if (arg == "--seed") {
      o.seed = std::stoull(next_value(i));
    } else if (arg == "--json") {
      o.json = next_value(i);
    } else if (arg == "--quick") {
      o.scale = 13;
      o.updates = 200;
      o.queries = 5'000;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage_and_exit(argv[0]);
    }
  }
  return o;
}

struct KindAgg {
  std::size_t count = 0;
  double seconds = 0.0;
  std::size_t rebuilt = 0;
  std::size_t patches = 0;
  std::size_t rows = 0;
  std::size_t full_rebuilds = 0;
  util::SampleSet latency_ms;

  void add(const core::UpdateStats& s) {
    ++count;
    seconds += s.seconds;
    rebuilt += s.affected_vicinities;
    patches += s.boundary_patches;
    rows += s.landmark_rows_refreshed;
    full_rebuilds += s.full_rebuild ? 1 : 0;
    latency_ms.add(s.seconds * 1e3);
  }
  double per_sec() const { return seconds > 0 ? count / seconds : 0.0; }
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  std::printf("== bench_updates: incremental edge insert/delete ==\n");
  util::Rng grng(opt.seed);
  gen::RmatParams params;
  util::Timer gen_timer;
  auto raw = gen::rmat(opt.scale,
                       opt.edges_per_node * (std::uint64_t{1} << opt.scale),
                       params, grng);
  auto g = graph::largest_component(raw).graph;
  std::printf("graph: rmat scale=%u -> LCC n=%u, arcs=%llu (%.1fs)\n",
              opt.scale, g.num_nodes(),
              static_cast<unsigned long long>(g.num_arcs()),
              gen_timer.elapsed_seconds());

  core::OracleOptions oracle_opt;
  oracle_opt.alpha = opt.alpha;
  oracle_opt.seed = opt.seed + 1;
  oracle_opt.fallback = core::Fallback::kBidirectionalBfs;
  oracle_opt.build_threads = 0;
  util::Timer build_timer;
  // Build the concrete oracle, then serve it through the backend-agnostic
  // AnyOracle adapter — apply_update flows through the same interface.
  auto built = std::make_shared<core::VicinityOracle>(
      core::VicinityOracle::build(g, oracle_opt));
  const std::size_t num_landmarks = built->build_stats().num_landmarks;
  core::QueryEngine engine(core::make_any_oracle(std::move(built)), 0);
  const double build_seconds = build_timer.elapsed_seconds();
  std::printf("oracle: alpha=%.1f, %zu landmarks, built in %.1fs\n", opt.alpha,
              num_landmarks, build_seconds);

  // Update stream: alternate degree-biased deletes and uniform inserts.
  util::Rng rng(opt.seed + 2);
  auto random_edge = [&]() {
    while (true) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (g.degree(u) == 0) continue;
      return std::pair<NodeId, NodeId>{
          u, g.neighbors(u)[rng.next_below(g.degree(u))]};
    }
  };
  auto random_non_edge = [&]() {
    while (true) {
      const auto u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (u != v && !g.has_edge(u, v)) return std::pair<NodeId, NodeId>{u, v};
    }
  };

  KindAgg ins;
  KindAgg del;
  util::Timer stream_timer;
  for (std::size_t step = 0; step < opt.updates; ++step) {
    if (step % 2 == 0) {
      const auto [u, v] = random_edge();
      del.add(engine.apply_update(g, core::GraphUpdate::remove(u, v)));
    } else {
      const auto [u, v] = random_non_edge();
      ins.add(engine.apply_update(g, core::GraphUpdate::insert(u, v)));
    }
  }
  const double stream_seconds = stream_timer.elapsed_seconds();
  const double updates_per_sec =
      static_cast<double>(opt.updates) / stream_seconds;
  std::printf("updates: %zu in %.2fs -> %.0f updates/s (epoch=%llu)\n",
              opt.updates, stream_seconds, updates_per_sec,
              static_cast<unsigned long long>(engine.epoch()));
  auto print_kind = [](const char* name, const KindAgg& k) {
    std::printf(
        "  %-7s %6zu ops  %8.0f/s  p50=%.2fms p99=%.2fms  "
        "rebuilt/op=%.1f patches/op=%.1f rows/op=%.2f fulls=%zu\n",
        name, k.count, k.per_sec(), k.latency_ms.percentile(50),
        k.latency_ms.percentile(99),
        k.count ? static_cast<double>(k.rebuilt) / k.count : 0.0,
        k.count ? static_cast<double>(k.patches) / k.count : 0.0,
        k.count ? static_cast<double>(k.rows) / k.count : 0.0,
        k.full_rebuilds);
  };
  print_kind("insert", ins);
  print_kind("delete", del);

  // Post-update serving quality: per-query latency on the repaired index.
  util::Rng qrng(opt.seed + 3);
  util::SampleSet latency_us;
  latency_us.reserve(opt.queries);
  core::QueryContext ctx;
  std::uint64_t exact = 0;
  for (std::size_t i = 0; i < opt.queries; ++i) {
    const auto s = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(qrng.next_below(g.num_nodes()));
    util::Timer qt;
    const auto r = engine.oracle().distance(s, t, ctx);
    latency_us.add(qt.elapsed_us());
    exact += r.exact ? 1 : 0;
  }
  const double qps = latency_us.mean() > 0 ? 1e6 / latency_us.mean() : 0.0;
  std::printf(
      "post-update queries: %zu, p50=%.2fus p90=%.2fus p99=%.2fus "
      "(%.0f q/s, %.2f%% exact)\n",
      opt.queries, latency_us.percentile(50), latency_us.percentile(90),
      latency_us.percentile(99), qps,
      100.0 * static_cast<double>(exact) / static_cast<double>(opt.queries));

  if (!opt.json.empty()) {
    std::ostringstream js;
    auto kind_json = [](const KindAgg& k) {
      std::ostringstream s;
      s << "{\"count\": " << k.count << ", \"per_sec\": " << k.per_sec()
        << ", \"p50_ms\": " << k.latency_ms.percentile(50)
        << ", \"p99_ms\": " << k.latency_ms.percentile(99)
        << ", \"vicinities_rebuilt\": " << k.rebuilt
        << ", \"boundary_patches\": " << k.patches
        << ", \"rows_refreshed\": " << k.rows
        << ", \"full_rebuilds\": " << k.full_rebuilds << "}";
      return s.str();
    };
    js << "{\n"
       << "  \"graph\": {\"generator\": \"rmat\", \"scale\": " << opt.scale
       << ", \"nodes\": " << g.num_nodes() << ", \"arcs\": " << g.num_arcs()
       << "},\n"
       << "  \"oracle\": {\"alpha\": " << opt.alpha
       << ", \"landmarks\": " << num_landmarks
       << ", \"build_seconds\": " << build_seconds << "},\n"
       << "  \"updates\": " << opt.updates << ",\n"
       << "  \"updates_per_sec\": " << updates_per_sec << ",\n"
       << "  \"insert\": " << kind_json(ins) << ",\n"
       << "  \"delete\": " << kind_json(del) << ",\n"
       << "  \"post_update_query\": {\"queries\": " << opt.queries
       << ", \"qps\": " << qps
       << ", \"p50_us\": " << latency_us.percentile(50)
       << ", \"p90_us\": " << latency_us.percentile(90)
       << ", \"p99_us\": " << latency_us.percentile(99) << "},\n"
       << "  \"epoch\": " << engine.epoch() << "\n}\n";
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
  return 0;
}
