// bench_server — loopback load generator for the vicinityd serving stack
// (net/server.h): an in-process net::Server over an RMAT packed index,
// driven by real TCP clients through net/client.h, so the measured path is
// the full production one — framing, epoll, admission, batching,
// run_batch, response serialization — minus only physical network latency.
//
// Two load models:
//   * closed-loop (default): C connections each keep a window of W
//     pipelined requests in flight; throughput is the sustainable rate
//     when clients wait for answers. This is the gated server_qps number.
//   * open-loop: requests are launched on a fixed schedule at --rate R
//     regardless of responses (the paper's "users do not wait" model);
//     latency under a given arrival rate, including queueing.
//
// Sources/targets are Zipf(theta)-skewed over node ids (bench/zipf.h:
// RMAT assigns low ids the high degrees, so skew concentrates load on the
// hub vicinities — the realistic cache-friendly case; --zipf 0 gives
// uniform).
//
// --cache-mb puts the server's hot-pair result cache in front of the
// oracle (net::ServerOptions::cache_mb); the JSON then carries the
// measured-window cache hit/miss deltas and steady-state hit rate —
// the gated cache_hit_rate number. --update-every N interleaves one
// APPLY_UPDATE (toggling a reserved non-edge) after every N queries on
// connection 0, exercising epoch invalidation under live load; the wire
// verify phase plus the server's own epoch fencing keep answers
// bit-identical to an uncached engine throughout.
//
// --slow-readers N attaches N deliberately hostile peers for the
// robustness sweep: each floods pipelined DISTANCE requests and never
// reads a reply, so the server's per-connection write buffer grows until
// the --max-conn-buffer-kb cap evicts it (reconnecting and flooding again
// until the timed run ends). The JSON then carries a "robustness" block —
// RSS before/after, and the shed/timeout/idle-close/slow-client-close
// counter deltas — and the run fails unless every abuser was evicted and
// process RSS stayed bounded while the well-behaved connections' latency
// set was measured as usual.
//
// Usage:
//   bench_server [--mode closed|open] [--connections C] [--window W]
//                [--queries Q] [--rate R] [--zipf THETA]
//                [--scale N] [--edges-per-node K] [--alpha A] [--seed S]
//                [--max-batch B] [--queue-depth QD]
//                [--engine-threads T] [--cache-mb MB] [--cache-ways W]
//                [--update-every N] [--slow-readers N]
//                [--request-timeout-ms MS] [--idle-timeout-ms MS]
//                [--max-conn-buffer-kb KB] [--json PATH|-] [--quick]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/any_oracle.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "gen/rmat.h"
#include "graph/components.h"
#include "net/client.h"
#include "net/server.h"
#include "util/memory.h"
#include "util/rng.h"
#include "zipf.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using namespace vicinity;

struct Options {
  std::string mode = "closed";  ///< closed|open
  unsigned connections = 1;
  std::size_t window = 72;       ///< closed-loop in-flight per connection
  std::size_t queries = 400'000;
  double rate = 100'000;         ///< open-loop total target qps
  double zipf = 0.8;             ///< 0 = uniform
  unsigned scale = 18;
  std::uint64_t edges_per_node = 8;
  double alpha = 4.0;
  std::uint64_t seed = 42;
  /// Closed-loop only: interleave one APPLY_UPDATE after every N queries
  /// on connection 0 (0 = pure query stream).
  std::size_t update_every = 0;
  /// Robustness sweep: hostile peers that flood requests and never read.
  std::size_t slow_readers = 0;
  net::ServerOptions server;
  std::string json;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--mode closed|open] [--connections C] [--window W]\n"
               "       [--queries Q] [--rate R] [--zipf THETA] [--scale N]\n"
               "       [--edges-per-node K] [--alpha A] [--seed S]\n"
               "       [--max-batch B] [--queue-depth QD]\n"
               "       [--engine-threads T] [--cache-mb MB] [--cache-ways W]\n"
               "       [--update-every N] [--slow-readers N]\n"
               "       [--request-timeout-ms MS] [--idle-timeout-ms MS]\n"
               "       [--max-conn-buffer-kb KB] [--json PATH|-] [--quick]\n";
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
    if (arg == "--mode") {
      o.mode = next_value(i);
      if (o.mode != "closed" && o.mode != "open") usage_and_exit(argv[0]);
    } else if (arg == "--connections") {
      o.connections =
          std::max(1u, static_cast<unsigned>(std::stoul(next_value(i))));
    } else if (arg == "--window") {
      o.window = std::max<std::size_t>(1, std::stoul(next_value(i)));
    } else if (arg == "--queries") {
      o.queries = std::stoull(next_value(i));
    } else if (arg == "--rate") {
      o.rate = std::stod(next_value(i));
    } else if (arg == "--zipf") {
      o.zipf = std::stod(next_value(i));
    } else if (arg == "--scale") {
      o.scale = static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (arg == "--edges-per-node") {
      o.edges_per_node = std::stoull(next_value(i));
    } else if (arg == "--alpha") {
      o.alpha = std::stod(next_value(i));
    } else if (arg == "--seed") {
      o.seed = std::stoull(next_value(i));
    } else if (arg == "--max-batch") {
      o.server.max_batch = std::stoul(next_value(i));
    } else if (arg == "--queue-depth") {
      o.server.queue_depth = std::stoul(next_value(i));
    } else if (arg == "--engine-threads") {
      o.server.engine_threads =
          static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (arg == "--cache-mb") {
      o.server.cache_mb = std::stoul(next_value(i));
    } else if (arg == "--cache-ways") {
      o.server.cache_ways =
          static_cast<unsigned>(std::stoul(next_value(i)));
    } else if (arg == "--update-every") {
      o.update_every = std::stoull(next_value(i));
    } else if (arg == "--slow-readers") {
      o.slow_readers = std::stoull(next_value(i));
    } else if (arg == "--request-timeout-ms") {
      o.server.request_timeout_ms =
          static_cast<std::uint32_t>(std::stoul(next_value(i)));
    } else if (arg == "--idle-timeout-ms") {
      o.server.idle_timeout_ms =
          static_cast<std::uint32_t>(std::stoul(next_value(i)));
    } else if (arg == "--max-conn-buffer-kb") {
      o.server.max_conn_buffer_bytes = std::stoull(next_value(i)) << 10;
    } else if (arg == "--json") {
      o.json = next_value(i);
    } else if (arg == "--quick") {
      o.scale = 13;
      o.queries = 40'000;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage_and_exit(argv[0]);
    }
  }
  if (o.update_every > 0 && o.mode != "closed") {
    std::cerr << "--update-every requires --mode closed\n";
    usage_and_exit(argv[0]);
  }
  return o;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Pair {
  NodeId s, t;
};

/// Mixed-stream knob for run_closed: after every `every` query frames,
/// inject one APPLY_UPDATE toggling the reserved non-edge (u, v) —
/// insert, then remove, then insert again — so the graph is always in one
/// of two valid states and every toggle advances the engine epoch.
struct UpdateSpec {
  std::size_t every = 0;  ///< 0 = no updates
  NodeId u = 0;
  NodeId v = 0;
};

struct LoadResult {
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t timed_out = 0;  ///< kTimeout replies (deadline refusals)
  std::uint64_t errors = 0;
  std::vector<double> latency_us;
  std::uint64_t behind = 0;   ///< open-loop sends that missed their slot
  std::uint64_t updates = 0;  ///< APPLY_UPDATEs acknowledged OK
};

/// Closed loop: keep `window` requests pipelined; every response tops the
/// window back up. Query request_id k (1-based per connection) maps to
/// pairs[k-1], so latencies need no shared map; APPLY_UPDATE frames carry
/// request_id 0 and are told apart by the echoed op. Requests are
/// pre-encoded into one contiguous stream and sent a burst at a time —
/// one send() per window refill, not per request — so the generator's own
/// syscall cost doesn't throttle the server under test when both share
/// cores. Frames are variable-size once updates are interleaved, so
/// `offsets` records each frame's start (plus one end sentinel).
LoadResult run_closed(std::uint16_t port, std::span<const Pair> pairs,
                      std::size_t window, const UpdateSpec& updates = {}) {
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> offsets;
  stream.reserve(pairs.size() * (net::kFrameHeaderBytes + 8));
  bool edge_present = false;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    offsets.push_back(stream.size());
    net::FrameHeader h;
    h.payload_len = 8;
    h.op = net::Op::kDistance;
    h.request_id = i + 1;
    std::vector<std::uint8_t> payload;
    net::FrameWriter w(payload);
    w.u32(pairs[i].s);
    w.u32(pairs[i].t);
    net::encode_frame(h, payload, stream);
    if (updates.every > 0 && (i + 1) % updates.every == 0 &&
        i + 1 < pairs.size()) {
      offsets.push_back(stream.size());
      net::FrameHeader uh;
      uh.payload_len = 16;
      uh.op = net::Op::kApplyUpdate;
      uh.request_id = 0;
      std::vector<std::uint8_t> upayload;
      net::FrameWriter uw(upayload);
      uw.u8(edge_present ? 1 : 0);  // kind: 0 insert, 1 remove
      uw.u8(0);
      uw.u8(0);
      uw.u8(0);
      uw.u32(updates.u);
      uw.u32(updates.v);
      uw.u32(1);
      net::encode_frame(uh, upayload, stream);
      edge_present = !edge_present;
    }
  }
  offsets.push_back(stream.size());
  const std::size_t frames = offsets.size() - 1;

  LoadResult out;
  out.latency_us.reserve(pairs.size());
  net::Client c;
  c.connect("127.0.0.1", port);
  std::vector<std::uint64_t> t0(pairs.size() + 1);
  // Reply frames are parsed out of bulk recv_some() reads — one syscall
  // drains a whole window of responses instead of two per reply.
  std::vector<std::uint8_t> rbuf(1u << 16);
  std::size_t have = 0;
  std::size_t next = 0, done = 0, inflight = 0;
  std::size_t next_query_id = 1;  ///< query frames stamped after `next`
  while (done < frames) {
    if (inflight < window && next < frames) {
      const std::size_t burst = std::min(window - inflight, frames - next);
      const std::uint64_t now = now_us();
      // Every query frame in the burst departs now; update frames have no
      // latency slot.
      for (std::size_t f = next; f < next + burst; ++f) {
        const std::size_t frame_bytes = offsets[f + 1] - offsets[f];
        if (frame_bytes == net::kFrameHeaderBytes + 8) {
          t0[next_query_id++] = now;
        }
      }
      c.send_bytes(stream.data() + offsets[next],
                   offsets[next + burst] - offsets[next]);
      next += burst;
      inflight += burst;
    }
    const std::size_t got = c.recv_some(rbuf.data() + have,
                                        rbuf.size() - have);
    if (got == 0) {
      throw std::runtime_error("server closed during closed-loop run");
    }
    have += got;
    const std::uint64_t now = now_us();
    std::size_t off = 0;
    while (have - off >= net::kFrameHeaderBytes) {
      const net::FrameHeader h = net::decode_header(
          std::span<const std::uint8_t>(rbuf.data() + off,
                                        net::kFrameHeaderBytes));
      const std::size_t frame_len = net::kFrameHeaderBytes + h.payload_len;
      if (frame_len > rbuf.size()) {
        throw std::runtime_error("reply frame larger than parse buffer");
      }
      if (have - off < frame_len) break;
      off += frame_len;
      --inflight;
      ++done;
      if (h.op == net::Op::kApplyUpdate) {
        // Updates are pipelined FIFO on this connection, so the
        // insert/remove alternation always applies to a valid state; any
        // failure is a real serving bug and fails the run.
        if (h.status == net::Status::kOk) {
          ++out.updates;
        } else {
          ++out.errors;
        }
      } else if (h.status == net::Status::kOk) {
        ++out.ok;
        out.latency_us.push_back(static_cast<double>(now - t0[h.request_id]));
      } else if (h.status == net::Status::kBusy) {
        ++out.busy;
      } else if (h.status == net::Status::kTimeout) {
        ++out.timed_out;
      } else {
        ++out.errors;
      }
    }
    if (off > 0 && off < have) {
      std::memmove(rbuf.data(), rbuf.data() + off, have - off);
    }
    have -= off;
  }
  return out;
}

/// Open loop: a sender thread launches requests on a fixed schedule while
/// a receiver thread drains responses. The t0 slots are atomics purely for
/// the cross-thread handoff (each slot is written once before its request
/// is sent, read once after its response arrives).
LoadResult run_open(std::uint16_t port, std::span<const Pair> pairs,
                    double interval_us) {
  LoadResult out;
  out.latency_us.reserve(pairs.size());
  net::Client c;
  c.connect("127.0.0.1", port);
  std::vector<std::atomic<std::uint64_t>> t0(pairs.size() + 1);

  std::thread sender([&] {
    const std::uint64_t start = now_us();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(interval_us * i);
      std::uint64_t now = now_us();
      if (now + 50 < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now));
        now = now_us();
      } else if (now > due + static_cast<std::uint64_t>(interval_us)) {
        ++out.behind;  // sender-side only; receiver never touches this
      }
      t0[i + 1].store(now, std::memory_order_release);
      c.send_distance(pairs[i].s, pairs[i].t);
    }
  });

  for (std::size_t done = 0; done < pairs.size(); ++done) {
    auto r = c.recv_reply();
    if (!r) throw std::runtime_error("server closed during open-loop run");
    if (r->header.status == net::Status::kOk) {
      ++out.ok;
      out.latency_us.push_back(static_cast<double>(
          now_us() -
          t0[r->header.request_id].load(std::memory_order_acquire)));
    } else if (r->header.status == net::Status::kBusy) {
      ++out.busy;
    } else if (r->header.status == net::Status::kTimeout) {
      ++out.timed_out;
    } else {
      ++out.errors;
    }
  }
  sender.join();
  return out;
}

struct SlowReaderResult {
  std::uint64_t requests_sent = 0;  ///< flooded frames (no reply ever read)
  std::uint64_t evictions = 0;      ///< times the server closed us mid-flood
};

/// Deliberately hostile peer for the robustness sweep: pipelines DISTANCE
/// requests as fast as the socket accepts them and never reads a single
/// reply byte, so the server's per-connection write buffer grows until the
/// --max-conn-buffer-kb cap evicts the connection. On eviction (typed
/// ClientError from the dead socket) it reconnects and floods again, so
/// exactly one abuser stays attached until `stop` is set.
SlowReaderResult run_slow_reader(std::uint16_t port,
                                 std::span<const Pair> pairs,
                                 const std::atomic<bool>& stop) {
  std::vector<std::uint8_t> chunk;
  chunk.reserve(pairs.size() * (net::kFrameHeaderBytes + 8));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    net::FrameHeader h;
    h.payload_len = 8;
    h.op = net::Op::kDistance;
    h.request_id = i + 1;
    std::vector<std::uint8_t> payload;
    net::FrameWriter w(payload);
    w.u32(pairs[i].s);
    w.u32(pairs[i].t);
    net::encode_frame(h, payload, chunk);
  }

  SlowReaderResult out;
  while (!stop.load(std::memory_order_relaxed)) {
    try {
      net::Client c;
      c.connect("127.0.0.1", port);
      while (!stop.load(std::memory_order_relaxed)) {
        c.send_bytes(chunk.data(), chunk.size());
        out.requests_sent += pairs.size();
      }
    } catch (const net::ClientError&) {
      // The server tore the connection down under us — the eviction this
      // sweep exists to provoke. Back off briefly so the reconnect loop
      // doesn't degenerate into a connect/evict spin.
      ++out.evictions;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  std::printf("== bench_server: loopback serving throughput ==\n");
  util::Rng grng(opt.seed);
  gen::RmatParams params;
  util::Timer gen_timer;
  auto raw = gen::rmat(opt.scale,
                       opt.edges_per_node * (std::uint64_t{1} << opt.scale),
                       params, grng);
  auto g = graph::largest_component(raw).graph;
  // Snapshot before the run: --update-every may leave the toggled edge
  // inserted, and the JSON should describe the graph the oracle was built
  // on.
  const std::uint64_t initial_arcs = g.num_arcs();
  std::printf("graph: rmat scale=%u -> LCC n=%u, arcs=%llu (%.1fs)\n",
              opt.scale, g.num_nodes(),
              static_cast<unsigned long long>(initial_arcs),
              gen_timer.elapsed_seconds());

  core::OracleOptions oracle_opt;
  oracle_opt.alpha = opt.alpha;
  oracle_opt.seed = opt.seed + 1;
  oracle_opt.build_threads = 0;  // hardware concurrency
  util::Timer build_timer;
  auto oracle =
      core::make_any_oracle(core::VicinityOracle::build(g, oracle_opt));
  std::printf("oracle built in %.1fs\n", build_timer.elapsed_seconds());

  net::Server server(oracle, &g, opt.server);
  server.start();
  std::printf(
      "server on 127.0.0.1:%u: max_batch=%zu queue_depth=%zu "
      "engine_threads=%u cache_mb=%zu\n",
      server.port(), opt.server.max_batch, opt.server.queue_depth,
      server.engine().thread_count(), opt.server.cache_mb);

  // Reserved non-edge for --update-every's insert/remove toggling: node 0
  // is the biggest hub, so invalidation-by-epoch hits the hottest cached
  // pairs hardest (the honest worst case).
  UpdateSpec update_spec;
  if (opt.update_every > 0) {
    update_spec.every = opt.update_every;
    update_spec.u = 0;
    NodeId v = 1;
    while (v < g.num_nodes() && g.has_edge(0, v)) ++v;
    if (v >= g.num_nodes()) {
      std::cerr << "node 0 is adjacent to every node; cannot pick a "
                   "toggle edge for --update-every\n";
      return 1;
    }
    update_spec.v = v;
    std::printf("update stream: toggle edge (%u, %u) every %zu queries "
                "on connection 0\n",
                update_spec.u, update_spec.v, opt.update_every);
  }

  // Pre-generate every connection's Zipf-skewed workload outside the
  // timed region.
  const bench::ZipfSampler zipf(g.num_nodes(), opt.zipf);
  const std::size_t per_conn =
      std::max<std::size_t>(1, opt.queries / opt.connections);
  std::vector<std::vector<Pair>> workload(opt.connections);
  for (unsigned ci = 0; ci < opt.connections; ++ci) {
    util::Rng rng(opt.seed + 100 + ci);
    workload[ci].reserve(per_conn);
    for (std::size_t i = 0; i < per_conn; ++i) {
      workload[ci].push_back({zipf.sample(rng), zipf.sample(rng)});
    }
  }

  // Warmup: prime every engine lane and the server's buffers before timing.
  {
    net::Client c;
    c.connect("127.0.0.1", server.port());
    const auto& pairs = workload[0];
    const std::size_t n = std::min<std::size_t>(pairs.size(), 2000);
    (void)run_closed(server.port(), std::span(pairs.data(), n), 32);
    c.close();
  }
  // With a cache, also replay every connection's full workload untimed:
  // the measured window then reports steady-state serving (a long-lived
  // daemon's regime) instead of the one-time cold fill. --update-every
  // still invalidates the warmed entries the moment its first toggle
  // lands, so churn numbers stay honest.
  if (opt.server.cache_mb > 0) {
    std::vector<std::thread> warmers;
    for (unsigned ci = 0; ci < opt.connections; ++ci) {
      warmers.emplace_back([&, ci] {
        (void)run_closed(server.port(), workload[ci], opt.window);
      });
    }
    for (auto& t : warmers) t.join();
  }

  // Answers over the wire must be bit-identical to in-process answers.
  bool verified = true;
  {
    net::Client c;
    c.connect("127.0.0.1", server.port());
    core::QueryContext ctx;
    for (std::size_t i = 0; i < std::min<std::size_t>(per_conn, 200); ++i) {
      const auto [s, t] = workload[0][i];
      const net::DistanceReply got = c.distance(s, t);
      const core::QueryResult want = oracle->distance(s, t, ctx);
      if (got.record.dist != want.dist || got.record.exact != want.exact) {
        verified = false;
      }
    }
    c.close();
  }
  std::printf("wire answers vs in-process: %s\n",
              verified ? "identical" : "MISMATCH");

  const double per_conn_interval_us =
      opt.rate > 0 ? 1e6 * opt.connections / opt.rate : 0.0;
  // Snapshot before the timed run: the measured-window cache and
  // robustness numbers are deltas against this, excluding the warmup and
  // verify traffic.
  const net::StatsReply pre_stats = server.stats_snapshot();
  const std::uint64_t rss_before = util::current_rss_bytes();
  // Hostile peers launch first so the abuse brackets the whole measured
  // window; `stop` releases any abuser the server has not evicted yet.
  std::atomic<bool> slow_stop{false};
  std::vector<SlowReaderResult> slow_results(opt.slow_readers);
  std::vector<std::thread> slow_threads;
  for (std::size_t si = 0; si < opt.slow_readers; ++si) {
    slow_threads.emplace_back([&, si] {
      slow_results[si] =
          run_slow_reader(server.port(), workload[0], slow_stop);
    });
  }
  std::vector<LoadResult> results(opt.connections);
  std::vector<std::thread> threads;
  util::Timer run_timer;
  for (unsigned ci = 0; ci < opt.connections; ++ci) {
    threads.emplace_back([&, ci] {
      // Only connection 0 injects updates: a single toggler keeps the
      // insert/remove alternation globally valid.
      const UpdateSpec spec = ci == 0 ? update_spec : UpdateSpec{};
      results[ci] = opt.mode == "closed"
                        ? run_closed(server.port(), workload[ci], opt.window,
                                     spec)
                        : run_open(server.port(), workload[ci],
                                   per_conn_interval_us);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = run_timer.elapsed_seconds();
  slow_stop.store(true, std::memory_order_relaxed);
  for (auto& t : slow_threads) t.join();
  const std::uint64_t rss_after = util::current_rss_bytes();

  std::uint64_t ok = 0, busy = 0, timed_out = 0, errors = 0, behind = 0,
                updates = 0;
  util::SampleSet latency;
  for (const LoadResult& r : results) {
    ok += r.ok;
    busy += r.busy;
    timed_out += r.timed_out;
    errors += r.errors;
    behind += r.behind;
    updates += r.updates;
    for (const double l : r.latency_us) latency.add(l);
  }
  const double qps = static_cast<double>(ok) / elapsed;
  std::uint64_t slow_sent = 0, slow_evictions = 0;
  for (const SlowReaderResult& r : slow_results) {
    slow_sent += r.requests_sent;
    slow_evictions += r.evictions;
  }

  const net::StatsReply sstats = server.stats_snapshot();
  // Measured-window cache behaviour (deltas over the timed run only).
  const std::uint64_t cache_hits = sstats.cache_hits - pre_stats.cache_hits;
  const std::uint64_t cache_misses =
      sstats.cache_misses - pre_stats.cache_misses;
  const std::uint64_t cache_inserts =
      sstats.cache_inserts - pre_stats.cache_inserts;
  const std::uint64_t cache_evictions =
      sstats.cache_evictions - pre_stats.cache_evictions;
  const double cache_hit_rate =
      cache_hits + cache_misses > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0.0;
  // Robustness deltas over the measured window (abuse traffic included).
  const std::uint64_t d_shed = sstats.shed_total - pre_stats.shed_total;
  const std::uint64_t d_timeouts =
      sstats.timeouts_total - pre_stats.timeouts_total;
  const std::uint64_t d_idle_closes =
      sstats.idle_closes - pre_stats.idle_closes;
  const std::uint64_t d_slow_closes =
      sstats.slow_client_closes - pre_stats.slow_client_closes;
  const std::uint64_t rss_growth =
      rss_after > rss_before ? rss_after - rss_before : 0;
  std::printf("mode=%s connections=%u%s: %llu ok, %llu busy, %llu timeout, "
              "%llu errors in %.2fs\n",
              opt.mode.c_str(), opt.connections,
              opt.mode == "closed"
                  ? (" window=" + std::to_string(opt.window)).c_str()
                  : (" rate=" + std::to_string(opt.rate)).c_str(),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(busy),
              static_cast<unsigned long long>(timed_out),
              static_cast<unsigned long long>(errors), elapsed);
  std::printf("server qps: %.0f\n", qps);
  std::printf("client latency: p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
              latency.percentile(50), latency.percentile(90),
              latency.percentile(99), latency.max());
  std::printf("server view: batches=%llu max_batch=%llu shed=%llu\n",
              static_cast<unsigned long long>(sstats.batches_total),
              static_cast<unsigned long long>(sstats.max_batch),
              static_cast<unsigned long long>(sstats.shed_total));
  if (opt.server.cache_mb > 0) {
    std::printf("cache (measured window): %llu hits, %llu misses "
                "(hit rate %.3f), %llu evictions\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                cache_hit_rate,
                static_cast<unsigned long long>(cache_evictions));
  }
  if (opt.slow_readers > 0) {
    std::printf(
        "slow readers: %zu attached, %llu frames flooded, %llu evictions "
        "(server: shed=%llu timeouts=%llu idle_closes=%llu "
        "slow_client_closes=%llu)\n",
        opt.slow_readers, static_cast<unsigned long long>(slow_sent),
        static_cast<unsigned long long>(slow_evictions),
        static_cast<unsigned long long>(d_shed),
        static_cast<unsigned long long>(d_timeouts),
        static_cast<unsigned long long>(d_idle_closes),
        static_cast<unsigned long long>(d_slow_closes));
    std::printf("process rss: %.1f MiB -> %.1f MiB (growth %.1f MiB)\n",
                static_cast<double>(rss_before) / (1 << 20),
                static_cast<double>(rss_after) / (1 << 20),
                static_cast<double>(rss_growth) / (1 << 20));
  }
  if (updates > 0) {
    std::printf("updates applied during the run: %llu (final epoch %llu)\n",
                static_cast<unsigned long long>(updates),
                static_cast<unsigned long long>(sstats.epoch));
  }
  if (behind > 0) {
    std::printf("open-loop sender fell behind schedule %llu times\n",
                static_cast<unsigned long long>(behind));
  }

  if (!opt.json.empty()) {
    std::ostringstream js;
    js << "{\n"
       << "  \"graph\": {\"generator\": \"rmat\", \"scale\": " << opt.scale
       << ", \"nodes\": " << g.num_nodes() << ", \"arcs\": " << initial_arcs
       << "},\n"
       << "  \"mode\": \"" << opt.mode << "\",\n"
       << "  \"connections\": " << opt.connections << ",\n"
       << "  \"window\": " << opt.window << ",\n"
       << "  \"rate_target\": " << opt.rate << ",\n"
       << "  \"zipf_theta\": " << opt.zipf << ",\n"
       << "  \"queries\": " << (per_conn * opt.connections) << ",\n"
       << "  \"batching\": {\"max_batch\": " << opt.server.max_batch
       << ", \"queue_depth\": " << opt.server.queue_depth << "},\n"
       << "  \"server_qps\": " << qps << ",\n"
       << "  \"latency_us\": {\"p50\": " << latency.percentile(50)
       << ", \"p90\": " << latency.percentile(90)
       << ", \"p99\": " << latency.percentile(99)
       << ", \"max\": " << latency.max() << "},\n"
       << "  \"busy\": " << busy << ",\n"
       << "  \"timeouts\": " << timed_out << ",\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"open_loop_behind\": " << behind << ",\n"
       << "  \"robustness\": {\"slow_readers\": " << opt.slow_readers
       << ", \"slow_reader_frames\": " << slow_sent
       << ", \"slow_reader_evictions\": " << slow_evictions
       << ", \"request_timeout_ms\": " << opt.server.request_timeout_ms
       << ", \"idle_timeout_ms\": " << opt.server.idle_timeout_ms
       << ", \"max_conn_buffer_bytes\": " << opt.server.max_conn_buffer_bytes
       << ", \"shed\": " << d_shed << ", \"timeouts\": " << d_timeouts
       << ", \"idle_closes\": " << d_idle_closes
       << ", \"slow_client_closes\": " << d_slow_closes
       << ", \"rss_before_bytes\": " << rss_before
       << ", \"rss_after_bytes\": " << rss_after
       << ", \"rss_growth_mib\": "
       << (static_cast<double>(rss_growth) / (1 << 20)) << "},\n"
       << "  \"cache\": {\"mb\": " << opt.server.cache_mb
       << ", \"ways\": " << opt.server.cache_ways
       << ", \"hits\": " << cache_hits << ", \"misses\": " << cache_misses
       << ", \"inserts\": " << cache_inserts
       << ", \"evictions\": " << cache_evictions
       << ", \"hit_rate\": " << cache_hit_rate
       << ", \"lifetime_hit_rate\": " << sstats.cache_hit_rate << "},\n"
       << "  \"updates\": {\"every\": " << opt.update_every
       << ", \"applied\": " << updates << "},\n"
       << "  \"server_view\": {\"batches\": " << sstats.batches_total
       << ", \"max_batch\": " << sstats.max_batch
       << ", \"shed\": " << sstats.shed_total
       << ", \"p50_us\": " << sstats.p50_us
       << ", \"p99_us\": " << sstats.p99_us << "},\n"
       << "  \"verified\": " << (verified ? "true" : "false") << "\n"
       << "}\n";
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

  server.stop();
  if (!verified) {
    std::cerr << "FAIL: wire answers diverged from in-process answers\n";
    return 1;
  }
  if (errors > 0) {
    std::cerr << "FAIL: " << errors << " error responses under load\n";
    return 1;
  }
  if (opt.slow_readers > 0 && opt.server.max_conn_buffer_bytes > 0) {
    if (d_slow_closes == 0) {
      std::cerr << "FAIL: slow readers attached but the write-buffer cap "
                   "evicted nobody (slow_client_closes stayed 0)\n";
      return 1;
    }
    // The cap bounds what an abuser can pin: per attached abuser allow
    // the buffered replies (cap) on both server and client side plus
    // allocator slack; anything past that means the eviction path is not
    // actually bounding memory.
    const std::uint64_t rss_bound =
        opt.slow_readers *
            (4 * static_cast<std::uint64_t>(opt.server.max_conn_buffer_bytes)) +
        (std::uint64_t{256} << 20);
    if (rss_growth > rss_bound) {
      std::cerr << "FAIL: rss grew " << (rss_growth >> 20)
                << " MiB under slow-reader abuse (bound " << (rss_bound >> 20)
                << " MiB)\n";
      return 1;
    }
  }
  return 0;
}
