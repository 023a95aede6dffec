// vicinity_cli — a small command-line front end for the library, the tool a
// downstream user would actually run:
//
//   generate a graph:
//     vicinity_cli gen --profile=livejournal --scale=0.01 --out=graph.bin
//   build an index:
//     vicinity_cli build --graph=graph.bin --alpha=16 --out=index.idx
//   query (REPL):       vicinity_cli query --graph=graph.bin --index=index.idx
//                       then type "s t" pairs on stdin ("path s t" for paths)
//                       (--no-mmap forces a heap load of a VCNIDX05-07 index;
//                        --verify deep-validates a mapped one up front)
//   inspect an index:   vicinity_cli index info index.idx
//                       (header + section table only — never loads the
//                        payload, so it is O(1) on a multi-GB index)
//   convert a legacy VCNIDX02-04 index into VCNIDX07 (the loaders open
//   VCNIDX05, VCNIDX06 and VCNIDX07; neither older one needs an upgrade):
//     vicinity_cli index upgrade --graph=graph.bin --in=old.idx --out=new.idx
//   one-shot stats:     vicinity_cli stats --graph=graph.bin
//
// Graphs load from the binary container or from SNAP-style edge lists
// (--edges=FILE), so real downloaded datasets work unchanged.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "vicinity.h"

using namespace vicinity;

namespace {

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

graph::Graph load_graph(int argc, char** argv) {
  const std::string bin = flag_value(argc, argv, "graph");
  const std::string edges = flag_value(argc, argv, "edges");
  if (!bin.empty()) return graph::load_binary_file(bin);
  if (!edges.empty()) {
    auto g = graph::load_edge_list_file(edges);
    auto lcc = graph::largest_component(g);
    std::cerr << "loaded edge list; largest component "
              << lcc.graph.summary() << "\n";
    return std::move(lcc.graph);
  }
  throw std::runtime_error("need --graph=FILE.bin or --edges=FILE.txt");
}

int cmd_gen(int argc, char** argv) {
  const std::string name = flag_value(argc, argv, "profile", "livejournal");
  const double scale = std::stod(flag_value(argc, argv, "scale", "0.01"));
  const auto seed = std::stoull(flag_value(argc, argv, "seed", "42"));
  const std::string out = flag_value(argc, argv, "out", "graph.bin");
  auto profile = gen::make_profile(name, seed, scale);
  graph::save_binary_file(profile.graph, out);
  std::cout << "wrote " << out << ": " << profile.graph.summary() << "\n";
  return 0;
}

int cmd_build(int argc, char** argv) {
  const auto g = load_graph(argc, argv);
  core::OracleOptions options;
  options.alpha = std::stod(flag_value(argc, argv, "alpha", "16"));
  options.seed = std::stoull(flag_value(argc, argv, "seed", "42"));
  const std::string out = flag_value(argc, argv, "out", "index.idx");
  util::Timer t;
  // The oracle reads the graph kind (undirected or directed) from g;
  // save() writes the backend-tagged container either way.
  const auto index = Index::build(g, options);
  index.save(out);
  const auto mem = index.memory_stats();
  std::cout << "built '" << index.backend_name() << "' index in "
            << util::fmt_fixed(t.elapsed_seconds(), 1) << "s: "
            << util::fmt_si(static_cast<double>(mem.vicinity_entries))
            << " vicinity entries, " << util::fmt_bytes(mem.bytes)
            << " -> " << out << "\n";
  return 0;
}

int cmd_query(int argc, char** argv) {
  const auto g = load_graph(argc, argv);
  const std::string index_path = flag_value(argc, argv, "index");
  core::OracleOptions options;
  options.alpha = std::stod(flag_value(argc, argv, "alpha", "16"));
  options.fallback = core::Fallback::kBidirectionalBfs;
  core::OpenOptions open_opts;
  if (has_flag(argc, argv, "no-mmap")) open_opts.mode = core::OpenMode::kHeap;
  open_opts.verify = has_flag(argc, argv, "verify");
  const auto index = index_path.empty()
                         ? Index::build(g, options)
                         : Index::open(index_path, g, open_opts);
  std::cout << "ready (" << g.summary() << ", backend '"
            << index.backend_name() << "' ["
            << index.capabilities().to_string() << "]); enter \"s t\" or "
            << "\"path s t\"; EOF quits\n";
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string first;
    if (!(is >> first)) continue;
    try {
      if (first == "path") {
        NodeId s, t;
        if (!(is >> s >> t)) throw std::runtime_error("usage: path s t");
        util::Timer q;
        const auto p = index.path(s, t);
        std::cout << "dist=" << p.dist << " [" << core::to_string(p.method)
                  << ", " << util::fmt_fixed(q.elapsed_us(), 1) << "us]";
        for (const NodeId v : p.path) std::cout << " " << v;
        std::cout << "\n";
      } else {
        const auto s = static_cast<NodeId>(std::stoul(first));
        NodeId t;
        if (!(is >> t)) throw std::runtime_error("usage: s t");
        util::Timer q;
        const auto d = index.distance(s, t);
        std::cout << "dist=" << d.dist << " [" << core::to_string(d.method)
                  << ", " << d.hash_lookups << " look-ups, "
                  << util::fmt_fixed(q.elapsed_us(), 1) << "us]\n";
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}

// `index info FILE`: header-only inspection — format version, backend,
// graph shape, and (for VCNIDX05-07 region containers) the section table,
// whose elem column shows each distance section's width (1 or 4 bytes).
// Reads O(header + section table) bytes regardless of index size.
int cmd_index_info(const std::string& path) {
  const core::IndexFileInfo info = core::inspect_index_file(path);
  std::cout << path << ": VCNIDX0" << info.version << " "
            << (info.mappable ? "region container (mappable)"
                              : "legacy stream container")
            << "\n";
  if (!info.mappable) {
    std::cout << "  backend:    " << info.backend << "\n"
              << "  convert it with: vicinity_cli index upgrade "
                 "--graph=GRAPH.bin --in=" << path << " --out=NEW.idx\n";
    return 0;
  }
  std::cout << "  backend:    " << info.backend << " (store: "
            << info.store_backend;
  if (!info.table_mode.empty()) {
    std::cout << ", tables: " << info.table_mode;
  }
  std::cout << ")\n";
  std::cout << "  graph:      " << info.num_nodes << " nodes, "
            << info.num_arcs << " arcs, "
            << (info.directed ? "directed" : "undirected") << ", "
            << (info.weighted ? "weighted" : "unweighted")
            << ", alpha=" << info.alpha << "\n";
  std::cout << "  file size:  "
            << util::fmt_bytes(static_cast<double>(info.file_bytes)) << " ("
            << info.file_bytes << " bytes)\n";
  if (!info.sections.empty()) {
    std::cout << "  sections (" << info.sections.size() << "):\n";
    for (const auto& s : info.sections) {
      std::cout << "    " << std::left << std::setw(22) << s.name
                << std::right << " id=" << std::setw(3) << s.id
                << " elem=" << s.elem_size << " count=" << std::setw(12)
                << s.count << " bytes=" << std::setw(12) << s.bytes
                << " offset=" << std::setw(12) << s.offset << "\n";
    }
  }
  return 0;
}

// `index upgrade --graph=G --in=OLD --out=NEW`: the legacy stream load of
// OLD against G, written as VCNIDX07. The output goes to a temporary file
// renamed over NEW only on success, so --in may equal --out.
int cmd_index_upgrade(int argc, char** argv) {
  const std::string graph_path = flag_value(argc, argv, "graph");
  const std::string in_path = flag_value(argc, argv, "in");
  const std::string out_path = flag_value(argc, argv, "out");
  if (graph_path.empty() || in_path.empty() || out_path.empty()) {
    std::cerr << "usage: vicinity_cli index upgrade --graph=G.bin "
                 "--in=OLD.idx --out=NEW.idx  (writes VCNIDX07)\n";
    return 2;
  }
  const auto g = graph::load_binary_file(graph_path);
  std::ifstream in(in_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + in_path);
  const std::string tmp = out_path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp);
    core::upgrade_index(in, g, out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + tmp);
  } catch (...) {
    std::filesystem::remove(tmp);
    throw;
  }
  std::filesystem::rename(tmp, out_path);
  std::cout << "upgraded " << in_path << " -> " << out_path << " (VCNIDX07)\n";
  return 0;
}

int cmd_stats(int argc, char** argv) {
  const auto g = load_graph(argc, argv);
  util::Rng rng(1);
  std::cout << g.summary() << "\n"
            << graph::compute_stats(g, rng).to_string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: vicinity_cli {gen|build|query|stats|index info|"
                 "index upgrade} [flags]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "build") return cmd_build(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "index") {
      if (argc >= 4 && std::string(argv[2]) == "info") {
        return cmd_index_info(argv[3]);
      }
      if (argc >= 3 && std::string(argv[2]) == "upgrade") {
        return cmd_index_upgrade(argc, argv);
      }
      std::cerr << "usage: vicinity_cli index {info FILE.idx | upgrade "
                   "--graph=G.bin --in=OLD.idx --out=NEW.idx}\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}
