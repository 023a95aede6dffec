// vicinityd's serving core: a non-blocking epoll event loop speaking the
// net/protocol.h framing, feeding an admission/batching layer over
// core::QueryEngine.
//
// Architecture (one event-loop thread + the engine's worker pool):
//
//   event-loop thread, one round                       QueryEngine pool
//   -------------------------------------------------  ----------------
//   1. accept4 / read every ready frame, parse,
//      admit (queue depth); PING + STATS inline
//   2. take one flush from the queue and run it   ->   run_batch_epoch
//                                                 <-   (N worker lanes)
//   3. append each reply to its connection's out
//      buffer, then flush each touched connection once
//
// The event loop owns every socket: level-triggered EPOLLIN|EPOLLOUT per
// connection with read/write ring buffers (net/ring_buffer.h), so partial
// reads and short writes are plain buffered state, never blocking. It also
// owns the admission queue and runs each flush itself, so a request
// crosses no thread inside the server unless its flush fans out over the
// engine's lanes. PING and STATS are answered as their frames are read:
// they are observability ops and must not queue behind the traffic they
// are observing.
//
// Batching contract: batching is work-conserving. Each round takes what
// is queued, FIFO, up to max_batch query units, and runs it at once;
// requests that arrive meanwhile form the next flush, so batches grow with
// load without any timer. Each flush is one QueryEngine::run_batch_epoch
// call, so every answer in it is computed at a single engine epoch
// (stamped into the response). APPLY_UPDATE acts as a batch fence:
// requests queued before it are flushed first, then the update runs alone
// (advancing the epoch), then later requests see the new index —
// epoch-consistent serving under a live update stream. Past queue_depth
// pending query units, admission sheds new requests with a BUSY response
// instead of letting the queue (and tail latency) grow without bound.
//
// While a flush or an update runs the server reads nothing. A round runs
// one flush, not the whole queue, so PING, STATS, admission and BUSY
// replies wait for at most the running flush (max_batch bounds it; an
// APPLY_UPDATE holds the loop for its repair time), never for the queue
// behind it. Deadlines and STATS latencies count from when a frame is
// read, not from when it reached the socket buffer.
//
// Fault tolerance: every raw syscall on this path goes through the
// util::fi shim (util/fault_inject.h) so chaos tests can inject EINTR,
// EAGAIN, short transfers, ECONNRESET, EMFILE and allocation failure;
// request_timeout_ms answers kTimeout instead of executing stale
// batches; idle_timeout_ms + max_conn_buffer_bytes evict dead, slow-loris
// and slow-reader peers; fd exhaustion sheds via a reserved spare fd and
// a timed listen-fd disarm instead of busy-spinning; drain() implements
// the SIGTERM contract (stop accepting, finish in-flight work, flush).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.h"
#include "graph/graph.h"
#include "net/protocol.h"
#include "net/ring_buffer.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vicinity::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds a kernel-assigned ephemeral port; read it back via port().
  std::uint16_t port = 0;
  /// QueryEngine worker-pool width; 0 selects hardware concurrency.
  unsigned engine_threads = 0;
  /// A flush stops taking requests once it holds this many query units (a
  /// DISTANCES request with n targets counts n units and is never split,
  /// so one wider than this still runs whole). Bounds how long an
  /// APPLY_UPDATE queued behind a backlog waits, how long the event loop
  /// reads nothing while one flush runs, and the size of one reply burst.
  std::size_t max_batch = 512;
  /// Admission limit: pending query units beyond this are shed with BUSY.
  std::size_t queue_depth = 8192;
  /// Per-frame payload cap (hostile length prefixes allocate nothing
  /// beyond it).
  std::uint32_t max_payload_bytes = kMaxPayloadBytes;
  /// Request latencies kept for the STATS percentiles (ring of the most
  /// recent samples).
  std::size_t latency_window = 1 << 16;
  /// Hot-pair result cache budget in MiB (cache/result_cache.h); 0 serves
  /// every query through the oracle. Entries are epoch-keyed, so
  /// APPLY_UPDATE invalidates lazily and answers stay bit-identical.
  std::size_t cache_mb = 0;
  /// Cache associativity (entries per set) when cache_mb > 0.
  unsigned cache_ways = 8;
  /// Per-request deadline: an admitted request that waits longer than this
  /// before its batch runs is answered with status kTimeout and never
  /// executed — late answers are refused, not silently computed against a
  /// stale batch budget. 0 disables. APPLY_UPDATE is exempt (it is a
  /// fence; applying it late is still correct).
  std::uint32_t request_timeout_ms = 0;
  /// Idle/slow-peer budget: a connection that is silent with nothing
  /// pending (idle_closes), stalls mid-frame without ever completing one
  /// (slow-loris), or accepts no reply bytes while output is queued is
  /// closed (slow_client_closes). 0 disables.
  std::uint32_t idle_timeout_ms = 0;
  /// Per-connection write-buffer cap: a pipelining peer that falls more
  /// than this many buffered reply bytes behind is evicted
  /// (slow_client_closes) instead of growing server memory without bound.
  /// 0 = unbounded.
  std::size_t max_conn_buffer_bytes = 64u << 20;
};

/// The serving loop. Construct over a built oracle (any backend), start(),
/// and it answers protocol ops on a loopback/TCP socket until stop().
/// stop() (and the destructor) joins the event loop and closes every fd —
/// no leaks under ASan even when connections are mid-flight.
class Server {
 public:
  /// `graph` must be the graph the oracle was built on and outlive the
  /// server; pass nullptr to refuse APPLY_UPDATE with an ERROR response
  /// (a frozen snapshot server). The oracle is shared: the caller may keep
  /// querying it through its own contexts while the server runs.
  Server(std::shared_ptr<core::AnyOracle> oracle, graph::Graph* graph,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the event-loop thread. Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();

  /// Graceful shutdown: wakes the event loop, joins its thread, closes
  /// every connection. Idempotent; safe to call from a signal-driven path
  /// (it only sets a flag and writes an eventfd before joining).
  void stop();

  /// Graceful drain, the SIGTERM contract: stops accepting connections,
  /// sheds newly arriving query/update work with BUSY, completes every
  /// in-flight batch and flushes every queued reply byte. Returns true
  /// when fully drained, false when timeout_ms elapsed first; either way
  /// the caller still invokes stop() to close connections and join the
  /// thread. Blocking — call from the signal-watching thread, not from a
  /// handler.
  bool drain(std::uint32_t timeout_ms);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (useful with options.port == 0). Valid after start().
  std::uint16_t port() const { return bound_port_; }

  /// The same numbers the STATS op reports, for in-process callers.
  StatsReply stats_snapshot();

  core::QueryEngine& engine() { return engine_; }

 private:
  struct Conn {
    std::uint64_t gen = 0;
    RingBuffer in;
    RingBuffer out;
    bool active = false;
    bool want_write = false;       ///< EPOLLOUT currently armed
    bool close_after_flush = false;
    bool read_closed = false;      ///< peer EOF seen; drain then close
    std::uint32_t inflight = 0;    ///< admitted requests not yet answered
    std::uint64_t last_activity_us = 0;  ///< accept / last complete frame
    std::uint64_t partial_since_us = 0;  ///< mid-frame bytes pending since
                                         ///< (0 = none); slow-loris clock
    std::uint64_t last_progress_us = 0;  ///< out buffer last shrank/filled
  };

  /// One admitted request, queued until a flush takes it.
  struct WorkItem {
    Op op = Op::kDistance;
    int fd = -1;
    std::uint64_t gen = 0;
    std::uint64_t request_id = 0;
    std::uint64_t enqueue_us = 0;
    NodeId s = 0;
    NodeId t = 0;
    std::vector<NodeId> targets;  ///< kDistances only
    core::GraphUpdate update;     ///< kApplyUpdate only

    /// Query units this request counts against max_batch and queue_depth.
    std::size_t units() const {
      return op == Op::kDistances && !targets.empty() ? targets.size() : 1;
    }
  };

  // -- event-loop side -----------------------------------------------------
  void io_loop();
  void accept_ready();
  void handle_accept_overload();
  void maybe_rearm_listen(std::uint64_t now);
  void sweep_timeouts(std::uint64_t now);
  /// epoll_wait timeout: -1 (block) unless a timer needs servicing.
  int io_timeout_ms() const;
  /// Evicts fd when its out buffer exceeds max_conn_buffer_bytes; true
  /// when the connection is gone (evicted now or already inactive).
  bool enforce_out_cap(int fd);
  void conn_readable(int fd);
  void conn_writable(int fd);
  void parse_frames(int fd);
  void dispatch(int fd, const FrameHeader& header,
                std::span<const std::uint8_t> payload);
  void answer_stats(int fd, std::uint64_t request_id);
  void send_frame(int fd, const FrameHeader& header,
                  std::span<const std::uint8_t> payload);
  void send_error(int fd, std::uint64_t request_id, Op op, Status status,
                  const std::string& message);
  void flush_conn(int fd);
  void close_conn(int fd);

  // -- flushes (also on the event-loop thread) -----------------------------
  bool enqueue_work(WorkItem&& item);
  void collect_flush(std::vector<WorkItem>& flush);
  void process_flush(const std::vector<WorkItem>& flush);
  /// Appends frames[i] to flush[i]'s connection unless it was closed or
  /// its fd reused since the request was read, then flushes every
  /// touched connection once.
  void deliver(const std::vector<WorkItem>& flush,
               const std::vector<std::vector<std::uint8_t>>& frames);
  void record_latencies(const std::vector<double>& samples_us)
      VICINITY_EXCLUDES(smu_);
  /// Interrupts epoll_wait; stop() and drain() use it.
  void wake_io();

  static std::uint64_t now_us();
  static core::QueryEngineOptions engine_options(const ServerOptions& opts);

  std::shared_ptr<core::AnyOracle> oracle_;
  graph::Graph* graph_;  ///< null = updates refused
  ServerOptions opts_;
  core::QueryEngine engine_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd: stop() / drain() -> event loop
  int spare_fd_ = -1;  ///< reserved fd released to shed accepts at EMFILE
  std::uint16_t bound_port_ = 0;
  std::vector<Conn> conns_;  ///< indexed by fd
  std::uint64_t next_gen_ = 1;
  std::uint64_t start_us_ = 0;

  // io-thread-only accept backoff state (EMFILE handling / drain).
  bool listen_disarmed_ = false;
  std::uint64_t listen_rearm_at_us_ = 0;
  std::uint64_t last_sweep_us_ = 0;

  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  /// io thread's published "the queue is empty and every connection has
  /// zero in-flight requests and an empty out buffer" observation,
  /// recomputed each round while draining.
  std::atomic<bool> drain_io_idle_{false};

  /// io-thread-only query scratch for PATH requests (engine.path runs on a
  /// caller context; only the io thread runs queries and updates, so no
  /// fencing beyond the engine's own batch lock is needed).
  core::QueryContext batch_ctx_;

  /// Admission queue: io-thread-only.
  std::deque<WorkItem> queue_;
  /// Query units in queue_; written by the io thread only, an atomic so
  /// stats_snapshot() callers on other threads can read it.
  std::atomic<std::size_t> queued_units_{0};

  util::Mutex smu_;  ///< latency window + qps snapshot state
  std::vector<double> latency_ring_ VICINITY_GUARDED_BY(smu_);
  std::size_t latency_next_ VICINITY_GUARDED_BY(smu_) = 0;
  std::size_t latency_count_ VICINITY_GUARDED_BY(smu_) = 0;
  std::uint64_t last_stats_us_ VICINITY_GUARDED_BY(smu_) = 0;
  std::uint64_t last_stats_queries_ VICINITY_GUARDED_BY(smu_) = 0;

  // Monotonic counters, written by whichever thread observes the event.
  std::atomic<std::uint64_t> queries_total_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> batches_total_{0};
  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> errors_total_{0};
  std::atomic<std::uint64_t> updates_total_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> max_batch_seen_{0};
  std::atomic<std::uint64_t> timeouts_total_{0};
  std::atomic<std::uint64_t> idle_closes_total_{0};
  std::atomic<std::uint64_t> slow_client_closes_total_{0};
};

}  // namespace vicinity::net
