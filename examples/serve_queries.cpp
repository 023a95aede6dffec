// serve_queries: the serving-path demo — build an index once, persist it,
// reload it (the paper's offline/online split, §2.1), then answer a mixed
// query workload concurrently through the QueryEngine. Everything goes
// through the vicinity::Index facade, so the same program shape works for
// undirected, directed and baseline backends.
//
//   ./examples/serve_queries [nodes] [threads]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "vicinity.h"

using namespace vicinity;

int main(int argc, char** argv) {
  // atoi returns 0 for garbage; floor both arguments to usable values.
  const NodeId n = std::max(
      argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 20000, NodeId{16});
  const unsigned threads = std::max(
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4, 1u);

  // 1. Offline phase: build the index and persist it. The oracle reads
  //    the graph kind from g (a directed graph gets out- and
  //    in-vicinities automatically).
  util::Rng rng(11);
  graph::Graph g = gen::powerlaw_cluster(n, 6, 0.4, rng);
  std::cout << "graph: " << g.summary() << "\n";

  core::OracleOptions options;
  options.alpha = 6.0;
  options.fallback = core::Fallback::kBidirectionalBfs;
  options.build_threads = 0;
  util::Timer build_timer;
  const auto built = Index::build(g, options);
  const auto index_path =
      std::filesystem::temp_directory_path() / "vicinity_serve_demo.idx";
  built.save(index_path.string());
  std::cout << "index built in "
            << util::fmt_fixed(build_timer.elapsed_seconds(), 2) << "s, saved "
            << util::fmt_bytes(std::filesystem::file_size(index_path))
            << " to " << index_path << "\n";

  // 2. Online phase: a fresh process would start here — load the index and
  //    stand up the engine (shared-immutable oracle + one context per lane).
  //    VCNIDX07 containers open two ways: kHeap deserializes everything into
  //    owned buffers (what every pre-v5 reader did), the default kMapped
  //    points the oracle's spans straight at the mmapped file. Time both to
  //    show the zero-copy win.
  util::Timer heap_timer;
  {
    const auto heap_index = Index::open(
        index_path.string(), g, core::OpenOptions{core::OpenMode::kHeap});
    std::cout << "heap open:   "
              << util::fmt_fixed(heap_timer.elapsed_ms(), 1)
              << "ms (full deserialize + deep validation)\n";
  }
  util::Timer load_timer;
  const auto index = Index::open(index_path.string(), g);
  const double mapped_ms = load_timer.elapsed_ms();
  core::QueryEngine engine = index.engine(threads);
  std::cout << "mapped open: " << util::fmt_fixed(mapped_ms, 1)
            << "ms (zero-copy region views over mmap)\n";
  std::cout << "index ready: backend '" << index.backend_name() << "' ["
            << index.capabilities().to_string() << "], serving on "
            << engine.thread_count() << " threads\n\n";

  // 3. A mixed workload: random pairs, landmark endpoints, self-queries and
  //    neighbor pairs — every Algorithm 1 resolution step gets traffic.
  //    The landmark list comes through the typed introspection hatch,
  //    which is null for non-vicinity backends — probe before use.
  util::Rng wrng(17);
  std::vector<core::Query> workload;
  workload.reserve(60000);
  const std::vector<NodeId> no_landmarks;
  const auto* vicinity_backend = index.undirected();
  const auto& landmarks =
      vicinity_backend ? vicinity_backend->landmarks().nodes : no_landmarks;
  auto random_node = [&] {
    return static_cast<NodeId>(wrng.next_below(g.num_nodes()));
  };
  for (int i = 0; i < 50000; ++i) {
    workload.push_back(core::Query{random_node(), random_node()});
  }
  for (int i = 0; i < 4000 && !landmarks.empty(); ++i) {
    const NodeId l =
        landmarks[wrng.next_below(landmarks.size())];
    workload.push_back(wrng.next_below(2) ? core::Query{l, random_node()}
                                          : core::Query{random_node(), l});
  }
  for (int i = 0; i < 3000; ++i) {
    const NodeId u = random_node();
    workload.push_back(core::Query{u, u});
  }
  for (int i = 0; i < 3000; ++i) {
    const NodeId u = random_node();
    const auto nbrs = g.neighbors(u);
    workload.push_back(core::Query{
        u, nbrs.empty() ? u : nbrs[wrng.next_below(nbrs.size())]});
  }

  util::Timer serve_timer;
  const auto results = engine.run_batch(workload);
  const double seconds = serve_timer.elapsed_seconds();
  std::cout << "served " << results.size() << " queries in "
            << util::fmt_fixed(seconds * 1e3, 1) << "ms  ("
            << util::fmt_si(static_cast<double>(results.size()) / seconds)
            << " queries/s, "
            << util::fmt_fixed(seconds * 1e6 / static_cast<double>(results.size()), 2)
            << "us/query mean)\n\n";

  // 4. How the traffic was answered (the serving-time Table 3 mix).
  const core::QueryStats stats = engine.stats();
  std::cout << "resolution mix over " << stats.queries << " queries:\n";
  for (std::size_t m = 0; m < core::kNumQueryMethods; ++m) {
    if (stats.by_method[m] == 0) continue;
    std::printf("  %-24s %8llu  (%.2f%%)\n",
                core::to_string(static_cast<core::QueryMethod>(m)),
                static_cast<unsigned long long>(stats.by_method[m]),
                100.0 * static_cast<double>(stats.by_method[m]) /
                    static_cast<double>(stats.queries));
  }
  std::cout << "  exact answers: "
            << util::fmt_fixed(100.0 * static_cast<double>(stats.exact) /
                                   static_cast<double>(stats.queries), 2)
            << "%  |  hash look-ups/query: "
            << util::fmt_fixed(static_cast<double>(stats.hash_lookups) /
                                   static_cast<double>(stats.queries), 2)
            << "\n\n";

  // 5. Callers with their own threads use one context each; paths go
  //    through the engine's capability-checked oracle surface.
  core::QueryContext ctx;
  const NodeId s = 1 % g.num_nodes(), t = g.num_nodes() - 1;
  const auto p = engine.oracle().path(s, t, ctx);
  std::cout << "path(" << s << ", " << t << ") [" << core::to_string(p.method)
            << "]:";
  for (const NodeId v : p.path) std::cout << " " << v;
  std::cout << "\n";

  std::filesystem::remove(index_path);
  return 0;
}
