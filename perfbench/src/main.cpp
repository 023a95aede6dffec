// perfbench_serve — open-loop serving benchmark for the vicinity oracle.
//
// One process: an RMAT graph (scale 17, the paper's alpha = 4, packed
// store) is indexed, saved, opened mapped and served by an in-process
// net::Server with 2 engine lanes; an open-loop generator drives it over
// one net::Client connection from 2 threads. Each run measures, for one
// workload:
//
//   * a warm-up, then two fixed rate points (low ~20% and high ~70% of the
//     knee), then a fixed-step knee search for the highest rate meeting
//     read p90 <= 1000us, fail ratio <= 0.001 and achieved >= 0.97 x
//     offered;
//   * for workloads without live updates or PATH reads, an idle probe of
//     APPLY_UPDATE and PATH latency, so every end-to-end metric exists on
//     every workload;
//   * a ground-truth check of sampled replies against BFS.
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 adds the
// per-layer replay (layers.h), server STATS deltas per rate point and a
// second, traced high point whose p50 against the untraced one gives the
// tracing overhead, and prints the per-layer metrics.
//
// Output: diagnostic JSON lines ({"env": ...}, {"point": ...}), then one
// final line {"correct", "attempted", "failed", "metrics"}.
//
// Usage: perfbench_serve --workload NAME --seed N [--seconds S] [--trace 0|1]
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/any_oracle.h"
#include "core/oracle.h"
#include "core/serialize.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "layers.h"
#include "loadgen.h"
#include "metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "truth.h"
#include "util/memory.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using namespace perfbench;
namespace core = vicinity::core;
namespace net = vicinity::net;
namespace graph = vicinity::graph;

// Serving shape, sized for a 4-core host.
constexpr unsigned kEngineLanes = 2;
constexpr unsigned kGeneratorThreads = 2;  // sender + receiver
constexpr unsigned kConnections = 1;

// The graph is fixed (the paper's single-dataset setting); --seed drives
// only the generated requests.
constexpr unsigned kScale = 17;
constexpr std::uint64_t kEdgesPerNode = 8;
constexpr std::uint64_t kGraphSeed = 42;
constexpr double kAlpha = 4.0;

// Service-level objective of the knee search.
constexpr double kSloP50Us = 1000.0;
constexpr double kMaxFailRatio = 0.001;
constexpr double kMinAchievedShare = 0.97;

// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 3;

// Ground-truth budget: BFS runs per run.
constexpr std::size_t kTruthSources = 96;
// Reads replayed through the oracle in the traced run (in units).
constexpr std::size_t kReplayUnits = 40'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_serve: " << why
            << "\nusage: perfbench_serve --workload NAME --seed N "
               "[--seconds S] [--trace 0|1]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 5) usage("--seconds must be at least 5");
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fmt(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.6g", std::isfinite(v) ? v : 1e9);
  return b;
}

/// Read-latency percentile of a point: the first quartile over its
/// half-second slices of each slice's percentile (failures sort last).
double p(const PointStats& s, double q) {
  return slice_percentile(s.read_us, q, s.slices);
}

/// The knee's objective: the median read answered within 1ms (the paper's
/// sub-millisecond target), no failures beyond 0.1% and no growing
/// backlog. The median and not the p90: on a shared virtual host, stalls
/// of the vCPUs move the p90 of a second by 2-4x between runs, while the
/// median only moves once the server saturates.
bool meets_slo(const PointStats& s) {
  return !s.generator_behind() && p(s, 50) <= kSloP50Us &&
         s.fail_ratio() <= kMaxFailRatio &&
         s.achieved_rate() >= kMinAchievedShare * s.offered_rate();
}

void print_point(const std::string& label, const PointStats& s) {
  std::ostringstream o;
  o << "{\"point\": {\"label\": \"" << label << "\", \"rate\": " << fmt(s.rate)
    << ", \"offered\": " << fmt(s.offered_rate())
    << ", \"achieved\": " << fmt(s.achieved_rate())
    << ", \"p50_us\": " << fmt(p(s, 50)) << ", \"p90_us\": " << fmt(p(s, 90))
    << ", \"p99_us\": " << fmt(p(s, 99)) << ", \"reads\": " << s.reads
    << ", \"ok\": " << s.ok << ", \"busy\": " << s.busy
    << ", \"timeouts\": " << s.timeouts << ", \"errors\": " << s.errors
    << ", \"unanswered\": " << s.unanswered
    << ", \"fail_ratio\": " << fmt(s.fail_ratio())
    << ", \"late_p99_us\": " << fmt(percentile(s.late_us, 99))
    << ", \"updates\": " << s.updates.size()
    << ", \"valid\": " << (s.generator_behind() ? "false" : "true")
    << ", \"meets_slo\": " << (meets_slo(s) ? "true" : "false") << "}}";
  std::cout << o.str() << std::endl;
}

/// Server-side view of one rate point, from STATS snapshots around it.
struct ServerDelta {
  double view_p50_us = 0.0;
  double units_per_batch = 0.0;
  double batches_per_s = 0.0;
};

ServerDelta delta(const net::StatsReply& a, const net::StatsReply& b,
                  const PointStats& s) {
  ServerDelta d;
  d.view_p50_us = b.p50_us;
  // PATH is answered outside the engine batch but counted as a query.
  const double units = static_cast<double>(b.queries_total - a.queries_total) -
                       static_cast<double>(s.path_us.size());
  const double batches = static_cast<double>(b.batches_total - a.batches_total);
  d.units_per_batch = batches > 0 ? units / batches : 0.0;
  d.batches_per_s = batches / s.seconds;
  return d;
}

/// One SCHED_IDLE spinner per CPU for the life of the run. A virtual CPU
/// that halts when idle needs the hypervisor to wake it, which on a shared
/// host adds up to milliseconds to a wake-up; a spinner keeps every vCPU
/// running, and because it has idle priority any woken thread of the
/// benchmark preempts it at once inside the guest.
class VcpuKeepAwake {
 public:
  explicit VcpuKeepAwake(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        const sched_param none{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &none);
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~VcpuKeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  VcpuKeepAwake(const VcpuKeepAwake&) = delete;
  VcpuKeepAwake& operator=(const VcpuKeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Serving {
  std::shared_ptr<core::AnyOracle> oracle;
  std::unique_ptr<net::Server> server;
  std::uint64_t index_bytes = 0;
  std::uint64_t mapped_bytes = 0;
  // Set-up phases, seconds.
  double build_s = 0.0;
  double open_s = 0.0;
  double start_s = 0.0;
};

/// One set-up: build the oracle, open the saved index mapped, start the
/// server and wait for the first PING reply. The first set-up also saves
/// the index and flushes it to disk (untimed), so no page-cache writeback
/// of the file overlaps the measured points; later ones reopen that file.
Serving set_up(graph::Graph& g, const WorkloadSpec& spec,
               const std::string& index_path, bool save) {
  using Clock = std::chrono::steady_clock;
  Serving s;
  core::OracleOptions opt;
  opt.alpha = kAlpha;
  opt.seed = kGraphSeed + 1;
  opt.backend = core::StoreBackend::kPacked;
  opt.fallback = core::Fallback::kBidirectionalBfs;
  opt.build_threads = 0;
  auto t0 = Clock::now();
  {
    const core::VicinityOracle built = core::VicinityOracle::build(g, opt);
    s.build_s = seconds_since(t0);
    s.index_bytes = built.memory_stats().bytes;
    if (save) {
      core::save_oracle_file(built, index_path);
      const int fd = ::open(index_path.c_str(), O_RDONLY);
      if (fd < 0 || ::fsync(fd) != 0) {
        throw std::runtime_error("cannot flush " + index_path);
      }
      ::close(fd);
    }
  }
  t0 = Clock::now();
  core::OpenOptions open;
  open.mode = core::OpenMode::kMapped;
  s.oracle = core::load_any_oracle_file(index_path, g, open);
  s.open_s = seconds_since(t0);
  s.mapped_bytes = s.oracle->as_undirected()->store().mapped_bytes();

  t0 = Clock::now();
  net::ServerOptions so;
  so.engine_threads = kEngineLanes;
  so.cache_mb = spec.cache_mb;
  so.request_timeout_ms = 1000;
  s.server = std::make_unique<net::Server>(s.oracle, &g, so);
  s.server->start();
  net::Client c;
  c.connect("127.0.0.1", s.server->port());
  c.ping();
  s.start_s = seconds_since(t0);
  return s;
}

int run(const Args& a) {
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr) usage("unknown workload " + a.workload);
  const unsigned nproc = std::thread::hardware_concurrency();
  if (kEngineLanes + kGeneratorThreads > nproc) {
    std::cerr << "perfbench_serve: refusing to run: " << kEngineLanes
              << " engine lanes + " << kGeneratorThreads
              << " generator threads exceed nproc = " << nproc << "\n";
    return 3;
  }

  const VcpuKeepAwake keep_awake(nproc);

  // ---- graph (not part of set-up time) ----------------------------------
  vicinity::util::Rng grng(kGraphSeed);
  graph::Graph g = graph::largest_component(
                       vicinity::gen::rmat(kScale, kEdgesPerNode << kScale,
                                           vicinity::gen::RmatParams{}, grng))
                       .graph;
  const graph::Graph pristine = g;

  // ---- set-up, repeated; the last one serves ----------------------------
  const std::string index_path =
      "perfbench-index-" + std::to_string(::getpid()) + ".vci";
  std::vector<double> setup_s, build_s, open_s, start_s;
  Serving serving;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    if (serving.server) serving.server->stop();
    serving = Serving{};
    serving = set_up(g, *spec, index_path, rep == 0);
    build_s.push_back(serving.build_s);
    open_s.push_back(serving.open_s);
    start_s.push_back(serving.start_s);
    setup_s.push_back(serving.build_s + serving.open_s + serving.start_s);
  }
  std::remove(index_path.c_str());  // the mapping stays valid
  net::Server& server = *serving.server;
  core::AnyOracle& oracle = *serving.oracle;

  {
    std::ostringstream o;
    o << "{\"env\": {\"workload\": \"" << spec->name << "\", \"seed\": "
      << a.seed << ", \"seconds\": " << a.seconds
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << nproc
      << ", \"engine_lanes\": " << kEngineLanes
      << ", \"generator_threads\": " << kGeneratorThreads
      << ", \"connections\": " << kConnections
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"graph\": \"rmat scale " << kScale << " lcc\", \"nodes\": "
      << g.num_nodes() << ", \"arcs\": " << g.num_arcs()
      << ", \"alpha\": " << kAlpha << ", \"index_bytes\": "
      << serving.index_bytes << ", \"mapped_bytes\": " << serving.mapped_bytes
      << ", \"setup_reps\": " << kSetupReps << "}}";
    std::cout << o.str() << std::endl;
  }

  MetricSet e2e;
  MetricSet layer;
  std::vector<AppliedUpdate> log;
  std::vector<SampledReply> samples;
  Generator gen(*spec, pristine, a.seed);

  // ---- per-layer replay, before any wire traffic (deterministic state) ---
  OracleReplay replay;
  if (a.trace) {
    Generator rgen(*spec, pristine, vicinity::util::mix64(a.seed) ^ 0x7e91);
    replay_updates(server.engine(), g, rgen.toggles(6), layer, log);
    std::vector<NodeId> targets;
    const std::vector<Request> reads = rgen.reads(
        kReplayUnits / std::max(1u, spec->fanout), targets);
    replay = replay_oracle(oracle, reads, targets, spec->fanout, layer);
    replay_store(*oracle.as_undirected(), replay, layer);
    if (spec->cache_mb > 0) {
      replay_cache(replay, spec->cache_mb, layer);
    } else {
      layer.set("cache.probe_ns", 0.0, "ns");
    }
    replay_protocol(rgen.plan(spec->high_rate, 0.25, false, 1), spec->fanout,
                    layer);
  }

  // ---- wire: open-loop rate points --------------------------------------
  net::ClientOptions copt;
  copt.recv_timeout_ms = 20;  // lets the receiver notice its deadline
  net::Client conn(copt);
  conn.connect("127.0.0.1", server.port());
  std::uint64_t next_id = 1;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t invalid_points = 0;
  const net::StatsReply run_start = server.stats_snapshot();

  const auto point = [&](const std::string& label, Generator& source,
                         double rate, double secs, bool with_updates,
                         std::function<void()> tick = {}) {
    const Plan plan = source.plan(rate, secs, with_updates, next_id);
    next_id += plan.size();
    PointOptions po;
    po.fanout = source.spec().fanout;
    po.sample_every = std::max<std::size_t>(1, plan.size() / 24);
    po.tick = std::move(tick);
    PointStats st = run_point(conn, plan, po);
    for (const UpdateAck& u : st.updates) {
      if (u.ok) log.push_back({u.reply.epoch, u.req});
    }
    for (SampledReply& s : st.samples) samples.push_back(std::move(s));
    st.samples.clear();
    if (st.generator_behind()) ++invalid_points;
    print_point(label, st);
    return st;
  };
  // The first updates of a freshly mapped index also pay its one-time
  // copy-on-write: two toggles, applied one at a time and unmeasured, go
  // first wherever updates are measured.
  const auto warm_updates = [&](Generator& source) {
    net::Client warm;
    warm.connect("127.0.0.1", server.port());
    for (const Request& r : source.toggles(2)) {
      const net::UpdateReply rep = r.kind == Kind::kInsert
                                       ? warm.insert_edge(r.s, r.t, 1)
                                       : warm.remove_edge(r.s, r.t);
      log.push_back({rep.epoch, r});
    }
  };

  const auto wire_start = std::chrono::steady_clock::now();
  point("warmup", gen, spec->low_rate, std::max(0.5, 0.05 * a.seconds),
        false);

  // The fixed points: steady-state reads, without update toggles (whose
  // fences and cache invalidations are measured by the knee search and
  // the update probe). Untraced runs give them most of the run, split into
  // six parts that alternate low/high, so a burst of host noise lands on
  // both rates and on part of each; the traced run keeps them whole so
  // that the server's latency window (the last 64k requests) describes one
  // rate only, and leaves time for the knee search.
  const int rounds = a.trace ? 1 : 6;
  const double low_s = (a.trace ? 0.15 : 0.35) * a.seconds / rounds;
  const double high_s = (a.trace ? 0.2 : 0.45) * a.seconds / rounds;
  PointStats low, high;
  ServerDelta dlow, dhigh;
  vicinity::cache::ResultCacheCounters c0, c1;
  for (int r = 0; r < rounds; ++r) {
    net::StatsReply s0 = server.stats_snapshot();
    PointStats l = point("low", gen, spec->low_rate, low_s, false);
    dlow = delta(s0, server.stats_snapshot(), l);
    low.absorb(std::move(l));

    if (const auto* rc = server.engine().result_cache()) c0 = rc->counters();
    s0 = server.stats_snapshot();
    PointStats h = point("high", gen, spec->high_rate, high_s, false);
    dhigh = delta(s0, server.stats_snapshot(), h);
    if (const auto* rc = server.engine().result_cache()) c1 = rc->counters();
    high.absorb(std::move(h));
  }
  for (const PointStats* s : {&low, &high}) {
    attempted += s->reads;
    failed += s->failed();
  }
  // Resident memory once the fixed points have run, freed heap returned.
  ::malloc_trim(0);
  const double rss_mib =
      static_cast<double>(vicinity::util::current_rss_bytes()) / (1 << 20);

  PointStats high_traced;
  if (a.trace) {
    // Traced repeat of the high point: a STATS scrape every 50ms, as an
    // operator's poller would do.
    high_traced = point("high-traced", gen, spec->high_rate, 0.2 * a.seconds,
                        false, [&server] { (void)server.stats_snapshot(); });
  }

  // Knee search, traced runs only: on a shared host its result moves with
  // the neighbours' load, so it is a per-layer metric (as are the p90s and
  // the update latencies, for the same reason). On the grid
  // k * step, with the workload's update toggles (after two unmeasured
  // ones): from the workload's start rate, multiply by 1.5 until a rate
  // misses the objective (or divide until one meets it), then bisect the
  // bracket down to one grid step. A rate counts as missed only when two
  // tries miss, so one noisy second does not end the search; the search
  // also ends when the run's time is spent.
  double fence_s = 0.0, knee_total_s = 0.0;  // live update acks, knee time
  const auto knee_search = [&] {
    const double knee_secs = std::max(1.0, 0.05 * a.seconds);
    const auto time_left = [&] {
      return seconds_since(wire_start) + knee_secs <= a.seconds;
    };
    if (spec->update_pairs_per_s > 0.0) warm_updates(gen);
    double achieved = 0.0;  // of the last rate that met the objective
    const auto meets = [&](double rate) {
      for (int t = 0; t < 2 && time_left(); ++t) {
        const PointStats s = point("knee", gen, rate, knee_secs, true);
        knee_total_s += s.seconds;
        for (const UpdateAck& u : s.updates) {
          if (u.ok) fence_s += u.latency_us * 1e-6;
        }
        if (meets_slo(s)) {
          achieved = s.achieved_rate();
          return true;
        }
      }
      return false;
    };
    const double step = spec->step;
    const auto on_grid = [step](double r) {
      return std::max(step, std::round(r / step) * step);
    };
    double lo = 0.0, hi = 0.0;  // highest met, lowest missed (0 = none yet)
    if (meets(spec->knee_start)) {
      lo = spec->knee_start;
      while (hi == 0.0 && time_left()) {
        const double r = on_grid(lo * 1.5);
        (meets(r) ? lo : hi) = r;
      }
    } else {
      hi = spec->knee_start;
      while (lo == 0.0 && hi > step && time_left()) {
        const double r = on_grid(hi / 1.5);
        (meets(r) ? lo : hi) = r;
      }
    }
    double achieved_at_lo = achieved;
    while (lo > 0.0 && hi - lo > step && time_left()) {
      const double mid = on_grid((lo + hi) / 2);
      if (mid <= lo || mid >= hi) break;
      if (meets(mid)) {
        lo = mid;
        achieved_at_lo = achieved;
      } else {
        hi = mid;
      }
    }
    return lo > 0.0 ? achieved_at_lo : 0.0;
  };
  const double max_qps = a.trace ? knee_search() : 0.0;

  // ---- probes: PATH latency where the mix sends no PATH, and APPLY_UPDATE
  // ack latency on every workload (24 toggles of the fixed stream at 8
  // pairs/s under 250 reads/s of the workload's own mix) -----------------
  double path_p90_us = slice_percentile(high.path_us, 90, high.slices);
  if (high.path_us.empty()) {
    WorkloadSpec ps = *spec;
    ps.fanout = 0;
    ps.zipf = 0.0;
    ps.path_share = 1.0;
    ps.update_pairs_per_s = 0.0;
    Generator pgen(ps, pristine, vicinity::util::mix64(a.seed) ^ 0x9a7);
    const PointStats s = point("path-probe", pgen, 2'000, 3.0, false);
    attempted += s.reads;
    failed += s.failed();
    path_p90_us = p(s, 90);
  }
  WorkloadSpec us = *spec;
  us.update_pairs_per_s = 8.0;
  Generator ugen(us, pristine, vicinity::util::mix64(a.seed) ^ 0x0b7);
  warm_updates(ugen);
  const PointStats probe = point("update-probe", ugen, 250, 3.0, true);
  attempted += probe.reads + probe.updates.size();
  failed += probe.failed();
  std::vector<double> insert_us, delete_us;
  for (const UpdateAck& u : probe.updates) {
    if (!u.ok) {
      ++failed;
    } else {
      (u.req.kind == Kind::kInsert ? insert_us : delete_us)
          .push_back(u.latency_us);
    }
  }
  const net::StatsReply run_end = server.stats_snapshot();

  // ---- per-layer metrics that need the wire points ----------------------
  if (a.trace) {
    const auto per_req = [](const PointStats& s) {
      return static_cast<double>(s.send_calls) /
             static_cast<double>(std::max<std::size_t>(1, s.late_us.size()));
    };
    layer.set("net.client.late_p99_us", percentile(high.late_us, 99), "us");
    layer.set("net.client.send_calls_per_req", per_req(high), "ratio");
    layer.set("net.client.p99_us.high", percentile(high.read_us, 99), "us");
    layer.set("net.client.p999_us.high", percentile(high.read_us, 99.9),
              "us");
    layer.set("net.client.invalid_points",
              static_cast<double>(invalid_points), "count");
    const double reads = static_cast<double>(low.reads + high.reads);
    layer.set("net.client.fail_ratio",
              static_cast<double>(low.failed() + high.failed()) / reads,
              "ratio");
    layer.set("net.client.busy", static_cast<double>(low.busy + high.busy),
              "count");
    layer.set("net.client.timeouts",
              static_cast<double>(low.timeouts + high.timeouts), "count");
    layer.set("net.client.errors",
              static_cast<double>(low.errors + high.errors), "count");
    layer.set("net.client.unanswered",
              static_cast<double>(low.unanswered + high.unanswered), "count");

    const BatchTimes bl = replay_engine(
        server.engine(), replay,
        static_cast<std::size_t>(std::lround(dlow.units_per_batch)));
    const BatchTimes bh = replay_engine(
        server.engine(), replay,
        static_cast<std::size_t>(std::lround(dhigh.units_per_batch)));
    for (const auto& [sfx, d, s, b] :
         {std::tuple{".low", dlow, &low, bl},
          std::tuple{".high", dhigh, &high, bh}}) {
      layer.set(std::string("net.server.view_p50_us") + sfx, d.view_p50_us,
                "us");
      layer.set(std::string("net.server.wait_p50_us") + sfx,
                d.view_p50_us - b.p50_us, "us");
      layer.set(std::string("net.server.io_p50_us") + sfx,
                p(*s, 50) - d.view_p50_us, "us");
      layer.set(std::string("net.server.units_per_batch") + sfx,
                d.units_per_batch, "count");
    }
    layer.set("net.server.batches_per_s", dhigh.batches_per_s, "1/s");
    layer.set("net.server.shed",
              static_cast<double>(run_end.shed_total - run_start.shed_total),
              "count");
    layer.set("net.server.timeouts",
              static_cast<double>(run_end.timeouts_total -
                                  run_start.timeouts_total),
              "count");
    layer.set("core.engine.batch_p50_us", bh.p50_us, "us");
    layer.set("core.engine.batch_p99_us", bh.p99_us, "us");
    layer.set("core.engine.qps", bh.units_per_s, "1/s");
    layer.set("core.engine.lane_imbalance",
              lane_imbalance(replay,
                             static_cast<std::size_t>(
                                 std::lround(dhigh.units_per_batch)),
                             kEngineLanes),
              "ratio");

    const double lookups = static_cast<double>(c1.hits + c1.misses) -
                           static_cast<double>(c0.hits + c0.misses);
    layer.set("cache.hit_ratio",
              lookups > 0 ? static_cast<double>(c1.hits - c0.hits) / lookups
                          : 0.0,
              "ratio");
    layer.set("cache.stale_ratio",
              lookups > 0 ? static_cast<double>(c1.stale_misses -
                                                c0.stale_misses) /
                                lookups
                          : 0.0,
              "ratio");
    layer.set("cache.evictions", static_cast<double>(c1.evictions - c0.evictions),
              "count");

    // Share of the knee search's time that update acks were outstanding.
    layer.set("core.dynamic.fence_share",
              knee_total_s > 0 ? fence_s / knee_total_s : 0.0, "ratio");
    layer.set("max_qps_at_slo", max_qps, "1/s");
    // The updates' central ack latency, as the interquartile mean.
    layer.set("insert_p50_us", interquartile_mean(insert_us), "us");
    layer.set("delete_p50_us", interquartile_mean(delete_us), "us");
    layer.set("p90_us.low", p(low, 90), "us");
    layer.set("p90_us.high", p(high, 90), "us");
    layer.set("setup.build_s", median(build_s), "s");
    layer.set("setup.open_ms", median(open_s) * 1e3, "ms");
    layer.set("setup.start_ms", median(start_s) * 1e3, "ms");
    const double untraced = p(high, 50);
    layer.set("trace.overhead_pct",
              100.0 * (p(high_traced, 50) - untraced) / untraced, "%");
  }

  // ---- ground truth -----------------------------------------------------
  server.stop();
  const TruthReport truth =
      check_against_bfs(pristine, log, std::move(samples), kTruthSources);
  std::cout << "{\"truth\": {\"sources\": " << truth.sources
            << ", \"answers\": " << truth.answers << ", \"paths\": "
            << truth.paths << ", \"wrong\": " << truth.wrong
            << ", \"updates_replayed\": " << log.size() << "}}" << std::endl;
  if (truth.wrong > 0) {
    std::cerr << "perfbench_serve: wrong answer: " << truth.first_error
              << "\n";
  }

  e2e.set("setup_s", median(setup_s), "s");
  e2e.set("index_mib", static_cast<double>(serving.index_bytes) / (1 << 20),
          "MiB");
  e2e.set("rss_mib", rss_mib, "MiB");
  e2e.set("p50_us.low", p(low, 50), "us");
  e2e.set("p50_us.high", p(high, 50), "us");
  e2e.set("ok_ratio",
          static_cast<double>(low.ok + high.ok) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, low.reads + high.reads)),
          "ratio");
  e2e.set("path_p90_us", path_p90_us, "us");

  const bool correct = truth.wrong == 0 && truth.sources > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << (a.trace ? layer : e2e).json() << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serve: " << e.what() << "\n";
    return 1;
  }
}
