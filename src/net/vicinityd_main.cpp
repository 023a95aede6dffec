// vicinityd — the network daemon: serve a vicinity index over TCP with the
// net/protocol.h framing (see net/server.h for the serving architecture).
//
//   vicinityd --graph=graph.bin [--index=index.vci] [--port=0]
//             [--host=127.0.0.1] [--threads=0] [--max-batch=512]
//             [--queue-depth=8192] [--frozen]
//             [--cache-mb=0] [--cache-ways=8]
//             [--request-timeout-ms=0] [--idle-timeout-ms=0]
//             [--max-conn-buffer-kb=65536] [--drain-timeout-ms=5000]
//             [--no-mmap] [--alpha=N] [--verbose]
//
// Operational flags: --request-timeout-ms bounds how long an admitted
// request may wait before its batch runs (late requests answer TIMEOUT);
// --idle-timeout-ms evicts silent and slow-loris connections;
// --max-conn-buffer-kb caps the per-connection reply backlog (slow
// readers past the cap are closed); --drain-timeout-ms bounds the
// SIGTERM graceful drain (finish in-flight work, flush replies, exit 0).
// SIGINT skips the drain and shuts down immediately.
//
// Any malformed or unknown flag is a one-line diagnostic and exit 2 —
// never a stack trace — so init systems and test drivers can tell
// operator error (2) from a runtime fault (1).
//
// --cache-mb=N puts an N-MiB hot-pair result cache in front of the oracle
// (cache/result_cache.h): repeated (s, t) queries become one hash probe,
// epoch-keyed so APPLY_UPDATE invalidates lazily and answers stay
// bit-identical. STATS reports hits/misses/inserts/evictions/hit-rate.
//
// --graph is required (the binary container from `vicinity_cli gen` /
// graph::save_binary_file). With --index the persisted index is opened —
// a VCNIDX05/06 container memory-maps in milliseconds, so a daemon restart
// costs roughly an mmap, not a rebuild; a legacy VCNIDX02-04 file is a
// fatal error until `vicinity_cli index upgrade` converts it — otherwise
// the oracle is built in-process first (minutes on large graphs; prefer
// `vicinity_cli build` once and --index thereafter).
//
// Prints exactly one line `listening on HOST:PORT` to stdout once the
// socket is accepting (drivers parse it to learn an ephemeral --port=0
// pick), then serves until SIGTERM/SIGINT, shutting down cleanly: stop
// accepting, join the event-loop thread, close every fd.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "core/options.h"
#include "core/serialize.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "net/server.h"
#include "util/fault_inject.h"
#include "util/log.h"
#include "vicinity_index.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void handle_stop(int sig) { g_signal = sig; }

/// Flags that take =VALUE. Anything else starting with these names is a
/// typo worth rejecting, not ignoring.
constexpr const char* kValueFlags[] = {
    "graph",      "index",        "port",
    "host",       "threads",      "max-batch",
    "queue-depth", "cache-mb",
    "cache-ways", "alpha",        "request-timeout-ms",
    "idle-timeout-ms", "max-conn-buffer-kb", "drain-timeout-ms"};

/// Boolean switches: present or absent, never =VALUE.
constexpr const char* kBoolFlags[] = {"frozen", "no-mmap", "verbose", "help"};

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// One-line diagnostic and operator-error exit. Deliberately not an
/// exception: a bad flag must never print a stack trace.
[[noreturn]] void die_usage(const std::string& message) {
  std::cerr << "vicinityd: " << message << " (--help for usage)\n";
  std::exit(2);
}

template <std::size_t N>
bool name_in(const std::string& name, const char* const (&list)[N]) {
  for (const char* f : list) {
    if (name == f) return true;
  }
  return false;
}

/// Every argv entry must be a known --flag or --flag=value.
void reject_unknown_flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      die_usage("unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    if (eq == std::string::npos) {
      if (name_in(name, kBoolFlags)) continue;
      if (name_in(name, kValueFlags)) {
        die_usage("--" + name + " requires =VALUE");
      }
    } else {
      if (name_in(name, kValueFlags)) continue;
      if (name_in(name, kBoolFlags)) {
        die_usage("--" + name + " does not take a value");
      }
    }
    die_usage("unknown flag '" + arg + "'");
  }
}

std::uint64_t parse_u64_flag(const std::string& name, const std::string& value,
                             std::uint64_t max_value) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (value.empty() || value[0] == '-' || used != value.size() ||
      v > max_value) {
    die_usage("bad value for --" + name + ": '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_positive_double_flag(const std::string& name,
                                  const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (value.empty() || used != value.size() || !(v > 0.0)) {
    die_usage("bad value for --" + name + ": '" + value + "'");
  }
  return v;
}

int usage() {
  std::cerr
      << "usage: vicinityd --graph=FILE.bin [--index=FILE.vci] [--port=N]\n"
         "                 [--host=ADDR] [--threads=N] [--max-batch=N]\n"
         "                 [--queue-depth=N] [--frozen]\n"
         "                 [--cache-mb=N] [--cache-ways=N]\n"
         "                 [--request-timeout-ms=N] [--idle-timeout-ms=N]\n"
         "                 [--max-conn-buffer-kb=N] [--drain-timeout-ms=N]\n"
         "                 [--no-mmap] [--alpha=N] [--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vicinity;

  if (has_flag(argc, argv, "help")) return usage();
  reject_unknown_flags(argc, argv);
  const std::string graph_path = flag_value(argc, argv, "graph");
  if (graph_path.empty()) return usage();
  if (has_flag(argc, argv, "verbose")) {
    util::set_log_level(util::LogLevel::kDebug);
  }

  try {
    if (util::FaultInjector::instance().configure_from_env()) {
      std::cerr << "vicinityd: fault injection armed "
                   "(VICINITY_FAULT_INJECT)\n";
    }
  } catch (const std::exception& e) {
    // Malformed injection spec is operator error, same as a bad flag.
    std::cerr << "vicinityd: " << e.what() << "\n";
    return 2;
  }

  net::ServerOptions opts;
  opts.host = flag_value(argc, argv, "host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(parse_u64_flag(
      "port", flag_value(argc, argv, "port", "0"), 65535));
  opts.engine_threads = static_cast<unsigned>(parse_u64_flag(
      "threads", flag_value(argc, argv, "threads", "0"), 4096));
  opts.max_batch = static_cast<std::size_t>(parse_u64_flag(
      "max-batch", flag_value(argc, argv, "max-batch", "512"), 1u << 24));
  opts.queue_depth = static_cast<std::size_t>(parse_u64_flag(
      "queue-depth", flag_value(argc, argv, "queue-depth", "8192"),
      1u << 30));
  opts.cache_mb = static_cast<std::size_t>(parse_u64_flag(
      "cache-mb", flag_value(argc, argv, "cache-mb", "0"), 1u << 20));
  opts.cache_ways = static_cast<unsigned>(parse_u64_flag(
      "cache-ways", flag_value(argc, argv, "cache-ways", "8"), 64));
  opts.request_timeout_ms = static_cast<std::uint32_t>(parse_u64_flag(
      "request-timeout-ms",
      flag_value(argc, argv, "request-timeout-ms", "0"), 86'400'000));
  opts.idle_timeout_ms = static_cast<std::uint32_t>(parse_u64_flag(
      "idle-timeout-ms", flag_value(argc, argv, "idle-timeout-ms", "0"),
      86'400'000));
  opts.max_conn_buffer_bytes = static_cast<std::size_t>(
      parse_u64_flag("max-conn-buffer-kb",
                     flag_value(argc, argv, "max-conn-buffer-kb", "65536"),
                     16u << 20) *
      1024);
  const auto drain_timeout_ms = static_cast<std::uint32_t>(parse_u64_flag(
      "drain-timeout-ms", flag_value(argc, argv, "drain-timeout-ms", "5000"),
      86'400'000));
  const std::string alpha = flag_value(argc, argv, "alpha");
  const double alpha_value =
      alpha.empty() ? 0.0 : parse_positive_double_flag("alpha", alpha);

  try {
    graph::Graph g = graph::load_binary_file(graph_path);
    std::cerr << "vicinityd: graph " << g.summary() << "\n";

    const std::string index_path = flag_value(argc, argv, "index");
    Index index = [&] {
      if (!index_path.empty()) {
        core::OpenOptions open;
        if (has_flag(argc, argv, "no-mmap")) {
          open.mode = core::OpenMode::kHeap;
        }
        return Index::open(index_path, g, open);
      }
      core::OracleOptions build;
      if (alpha_value > 0.0) build.alpha = alpha_value;
      std::cerr << "vicinityd: no --index, building the oracle in-process "
                   "(persist one with vicinity_cli build to skip this)\n";
      return Index::build(g, build);
    }();

    // --frozen drops the graph pointer: APPLY_UPDATE answers ERROR and the
    // served snapshot can never mutate.
    graph::Graph* mutable_graph =
        has_flag(argc, argv, "frozen") ? nullptr : &g;
    net::Server server(index.shared_oracle(), mutable_graph, opts);
    server.start();

    std::cout << "listening on " << opts.host << ":" << server.port()
              << std::endl;  // flush: drivers block on this line

    struct sigaction sa{};
    sa.sa_handler = handle_stop;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (g_signal == SIGTERM && drain_timeout_ms > 0) {
      // Graceful drain: stop accepting, finish in-flight batches, flush
      // every queued reply, then tear down. SIGINT skips straight to
      // stop() for an operator who wants the port back now.
      std::cerr << "vicinityd: SIGTERM, draining (up to " << drain_timeout_ms
                << " ms)\n";
      if (!server.drain(drain_timeout_ms)) {
        std::cerr << "vicinityd: drain deadline expired, "
                     "closing with work in flight\n";
      }
    } else {
      std::cerr << "vicinityd: signal received, shutting down\n";
    }
    server.stop();
    const net::StatsReply s = server.stats_snapshot();
    std::cerr << "vicinityd: served " << s.requests_total << " requests ("
              << s.queries_total << " queries, " << s.updates_total
              << " updates, " << s.shed_total << " shed, " << s.errors_total
              << " errors)\n";
    if (s.cache_hits + s.cache_misses > 0) {
      std::cerr << "vicinityd: cache " << s.cache_hits << " hits, "
                << s.cache_misses << " misses (hit rate " << s.cache_hit_rate
                << "), " << s.cache_evictions << " evictions\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vicinityd: fatal: " << e.what() << "\n";
    return 1;
  }
}
