#include "layers.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "cache/result_cache.h"
#include "loadgen.h"
#include "net/protocol.h"

namespace perfbench {

namespace core = vicinity::core;
namespace net = vicinity::net;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// The methods the vicinity backend produces with an exact BFS fallback,
/// under their metric names.
struct MethodName {
  core::QueryMethod method;
  const char* name;
};
constexpr MethodName kMethods[] = {
    {core::QueryMethod::kIdenticalNodes, "identical"},
    {core::QueryMethod::kSourceIsLandmark, "source_landmark"},
    {core::QueryMethod::kTargetIsLandmark, "target_landmark"},
    {core::QueryMethod::kTargetInSourceVicinity, "target_in_source"},
    {core::QueryMethod::kSourceInTargetVicinity, "source_in_target"},
    {core::QueryMethod::kVicinityIntersection, "vicinity_intersection"},
    {core::QueryMethod::kFallbackExact, "fallback_exact"},
};

/// Keeps a computed value alive so the timed loop is not optimized away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

void replay_protocol(const Plan& plan, unsigned fanout, MetricSet& out) {
  const std::size_t n = std::min<std::size_t>(plan.size(), 20'000);
  std::vector<std::uint8_t> wire;
  wire.reserve(plan.offset[n]);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    encode_request(plan.req[i], plan.targets_of(plan.req[i], fanout),
                   plan.first_id + i, wire);
  }
  out.set("net.protocol.encode_ns", ns_since(t0) / static_cast<double>(n),
          "ns");

  // Decode as the server does: header, header validation, payload fields.
  std::uint64_t checksum = 0;
  t0 = Clock::now();
  for (std::size_t off = 0; off < wire.size();) {
    const net::FrameHeader h = net::decode_header(
        std::span<const std::uint8_t>(wire.data() + off, wire.size() - off));
    if (!net::validate_request_header(h, net::kMaxPayloadBytes).empty()) {
      throw std::runtime_error("replay_protocol: invalid request frame");
    }
    net::FrameReader rd(std::span<const std::uint8_t>(
        wire.data() + off + net::kFrameHeaderBytes, h.payload_len));
    while (rd.remaining() >= 4) checksum += rd.u32();
    off += net::kFrameHeaderBytes + h.payload_len;
  }
  keep(checksum);
  out.set("net.protocol.decode_ns", ns_since(t0) / static_cast<double>(n),
          "ns");
}

OracleReplay replay_oracle(const core::AnyOracle& oracle,
                           std::span<const Request> reads,
                           const std::vector<NodeId>& targets, unsigned fanout,
                           MetricSet& out) {
  OracleReplay rep;
  std::vector<std::pair<NodeId, NodeId>> paths;
  for (const Request& r : reads) {
    switch (r.kind) {
      case Kind::kDistance:
        rep.units.push_back({r.s, r.t});
        break;
      case Kind::kDistances:
        for (unsigned k = 0; k < fanout; ++k) {
          rep.units.push_back({r.s, targets[r.first_target + k]});
        }
        break;
      case Kind::kPath:
        paths.emplace_back(r.s, r.t);
        break;
      default:
        break;
    }
  }
  // A mix without PATH still gets a path time, on its first pairs (the
  // wire's PATH probe sends the same kind of pairs).
  if (paths.empty()) {
    for (std::size_t i = 0; i < 2'000 && i < rep.units.size(); ++i) {
      paths.emplace_back(rep.units[i].s, rep.units[i].t);
    }
  }

  core::QueryContext ctx;
  rep.results.reserve(rep.units.size());
  rep.unit_ns.reserve(rep.units.size());
  for (const core::Query& q : rep.units) {
    const auto t0 = Clock::now();
    rep.results.push_back(oracle.distance(q.s, q.t, ctx));
    rep.unit_ns.push_back(ns_since(t0));
  }

  const double n = static_cast<double>(std::max<std::size_t>(1, rep.units.size()));
  std::uint64_t lookups = 0;
  for (const MethodName& m : kMethods) {
    std::vector<double> us;
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      if (rep.results[i].method == m.method) us.push_back(rep.unit_ns[i] * 1e-3);
    }
    out.set(std::string("core.oracle.share.") + m.name,
            static_cast<double>(us.size()) / n, "ratio");
    out.set(std::string("core.oracle.us.") + m.name, mean(us), "us");
  }
  for (const core::QueryResult& r : rep.results) lookups += r.hash_lookups;
  std::vector<double> us(rep.unit_ns);
  for (double& v : us) v *= 1e-3;
  out.set("core.oracle.p50_us", percentile(us, 50), "us");
  out.set("core.oracle.p99_us", percentile(us, 99), "us");
  out.set("core.oracle.hash_lookups_per_query",
          static_cast<double>(lookups) / n, "count");

  std::vector<double> path_us;
  for (const auto& [s, t] : paths) {
    const auto t0 = Clock::now();
    const core::PathResult p = oracle.path(s, t, ctx);
    path_us.push_back(ns_since(t0) * 1e-3);
    if (p.path.empty()) throw std::runtime_error("replay_oracle: no path");
  }
  out.set("core.oracle.path_us", mean(path_us), "us");
  return rep;
}

void replay_store(const core::VicinityOracle& oracle,
                  const OracleReplay& replay, MetricSet& out) {
  const core::VicinityStore& store = oracle.store();
  std::vector<std::pair<NodeId, NodeId>> sides;  // (iterated, probed)
  for (std::size_t i = 0; i < replay.units.size(); ++i) {
    if (replay.results[i].method != core::QueryMethod::kVicinityIntersection) {
      continue;
    }
    NodeId iter = replay.units[i].s;
    NodeId probe = replay.units[i].t;
    if (store.intersect_cost(store.boundary_size(probe), iter) <
        store.intersect_cost(store.boundary_size(iter), probe)) {
      std::swap(iter, probe);
    }
    sides.emplace_back(iter, probe);
  }
  if (sides.empty()) {
    out.set("core.store.intersect_ns", 0.0, "ns");
    out.set("core.store.probes_per_intersect", 0.0, "count");
    return;
  }
  // Three passes over the pairs; the median pass is reported.
  std::vector<double> pass_ns;
  std::uint64_t probes = 0;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    probes = 0;
    const auto t0 = Clock::now();
    for (const auto& [iter, probe] : sides) {
      std::uint32_t lookups = 0;
      sink += store.intersect_min(store.boundary(iter), probe, lookups);
      probes += lookups;
    }
    pass_ns.push_back(ns_since(t0));
  }
  const double pairs = static_cast<double>(sides.size());
  keep(sink);
  out.set("core.store.intersect_ns", median(pass_ns) / pairs, "ns");
  out.set("core.store.probes_per_intersect",
          static_cast<double>(probes) / pairs, "count");
}

void replay_cache(const OracleReplay& replay, std::size_t cache_mb,
                  MetricSet& out) {
  vicinity::cache::ResultCacheOptions opt;
  opt.capacity_bytes = cache_mb << 20;
  vicinity::cache::ResultCache cache(opt);
  // Fill pass (the serving steady state), then one timed probe pass.
  for (std::size_t i = 0; i < replay.units.size(); ++i) {
    core::QueryResult r;
    if (!cache.lookup(replay.units[i].s, replay.units[i].t, 0, r)) {
      cache.insert(replay.units[i].s, replay.units[i].t, 0, replay.results[i]);
    }
  }
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (const core::Query& q : replay.units) {
    core::QueryResult r;
    hits += cache.lookup(q.s, q.t, 0, r) ? 1 : 0;
  }
  keep(hits);
  out.set("cache.probe_ns",
          ns_since(t0) / static_cast<double>(
                             std::max<std::size_t>(1, replay.units.size())),
          "ns");
}

BatchTimes replay_engine(core::QueryEngine& engine, const OracleReplay& replay,
                         std::size_t batch_units) {
  batch_units = std::max<std::size_t>(1, batch_units);
  std::vector<core::QueryResult> results(batch_units);
  std::vector<double> batch_us;
  double total_ns = 0.0;
  std::size_t done = 0;
  const std::span<const core::Query> units(replay.units);
  for (std::size_t lo = 0; lo + batch_units <= units.size(); lo += batch_units) {
    const auto t0 = Clock::now();
    engine.run_batch_epoch(units.subspan(lo, batch_units), results);
    const double ns = ns_since(t0);
    total_ns += ns;
    done += batch_units;
    batch_us.push_back(ns * 1e-3);
  }
  BatchTimes t;
  t.p50_us = percentile(batch_us, 50);
  t.p99_us = percentile(batch_us, 99);
  t.units_per_s = total_ns > 0 ? static_cast<double>(done) * 1e9 / total_ns : 0;
  return t;
}

double lane_imbalance(const OracleReplay& replay, std::size_t batch_units,
                      unsigned lanes) {
  batch_units = std::max<std::size_t>(1, batch_units);
  std::vector<double> ratios;
  for (std::size_t lo = 0; lo + batch_units <= replay.unit_ns.size();
       lo += batch_units) {
    // ThreadPool::parallel_for_ranges: base-sized chunks, the first `rem`
    // one larger.
    const std::size_t chunks = std::min<std::size_t>(lanes, batch_units);
    const std::size_t base = batch_units / chunks;
    const std::size_t rem = batch_units % chunks;
    double slowest = 0.0, sum = 0.0;
    std::size_t a = lo;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t b = a + base + (c < rem ? 1 : 0);
      const double lane = std::accumulate(replay.unit_ns.begin() + a,
                                          replay.unit_ns.begin() + b, 0.0);
      slowest = std::max(slowest, lane);
      sum += lane;
      a = b;
    }
    if (sum > 0) ratios.push_back(slowest / (sum / static_cast<double>(chunks)));
  }
  return mean(ratios);
}

void replay_updates(core::QueryEngine& engine, vicinity::graph::Graph& g,
                    std::span<const Request> toggles, MetricSet& out,
                    std::vector<AppliedUpdate>& log) {
  std::vector<double> insert_us, delete_us;
  double rebuilt = 0, patches = 0, rows = 0;
  for (const Request& r : toggles) {
    const core::GraphUpdate u = r.kind == Kind::kInsert
                                    ? core::GraphUpdate::insert(r.s, r.t)
                                    : core::GraphUpdate::remove(r.s, r.t);
    const auto t0 = Clock::now();
    const core::UpdateStats st = engine.apply_update(g, u);
    (r.kind == Kind::kInsert ? insert_us : delete_us)
        .push_back(ns_since(t0) * 1e-3);
    log.push_back({engine.epoch(), r});
    rebuilt += static_cast<double>(st.affected_vicinities);
    patches += static_cast<double>(st.boundary_patches);
    rows += static_cast<double>(st.landmark_rows_refreshed);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, toggles.size()));
  out.set("core.dynamic.insert_us", median(insert_us), "us");
  out.set("core.dynamic.delete_us", median(delete_us), "us");
  out.set("core.dynamic.rebuilt_per_update", rebuilt / n, "count");
  out.set("core.dynamic.patches_per_update", patches / n, "count");
  out.set("core.dynamic.rows_per_update", rows / n, "count");
}

}  // namespace perfbench
