#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "core/any_oracle.h"
#include "util/fault_inject.h"
#include "util/log.h"
#include "util/stats.h"

namespace vicinity::net {

namespace fi = util::fi;

namespace {

/// How long accepts stay paused after fd exhaustion before the listen fd
/// is re-armed. Long enough to stop the level-triggered accept storm,
/// short enough that a recovered process resumes promptly.
constexpr std::uint64_t kListenRearmDelayUs = 50'000;

/// RAII close for the error paths of start(); -1 is "not open".
void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::vector<std::uint8_t> make_frame(Op op, Status status,
                                     std::uint64_t request_id,
                                     std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.op = op;
  h.status = status;
  h.request_id = request_id;
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  encode_frame(h, payload, frame);
  return frame;
}

std::vector<std::uint8_t> make_error_frame(Op op, Status status,
                                           std::uint64_t request_id,
                                           const std::string& message) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(message.data());
  return make_frame(op, status, request_id,
                    std::span<const std::uint8_t>(bytes, message.size()));
}

}  // namespace

Server::Server(std::shared_ptr<core::AnyOracle> oracle, graph::Graph* graph,
               ServerOptions options)
    : oracle_(std::move(oracle)),
      graph_(graph),
      opts_(std::move(options)),
      engine_(oracle_, engine_options(opts_)) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.latency_window == 0) opts_.latency_window = 1;
  latency_ring_.resize(opts_.latency_window, 0.0);
}

Server::~Server() { stop(); }

core::QueryEngineOptions Server::engine_options(const ServerOptions& opts) {
  core::QueryEngineOptions eo;
  eo.threads = opts.engine_threads;
  eo.enable_cache = opts.cache_mb > 0;
  eo.cache.capacity_bytes = opts.cache_mb << 20;
  eo.cache.ways = opts.cache_ways;
  return eo;
}

std::uint64_t Server::now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  drain_io_idle_.store(false, std::memory_order_release);
  listen_disarmed_ = false;
  listen_rearm_at_us_ = 0;
  last_sweep_us_ = 0;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("vicinityd: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close_if_open(listen_fd_);
    throw std::runtime_error("vicinityd: bad listen address " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    close_if_open(listen_fd_);
    throw std::runtime_error("vicinityd: bind(" + opts_.host + ":" +
                             std::to_string(opts_.port) + ") failed: " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string err = std::strerror(errno);
    close_if_open(listen_fd_);
    throw std::runtime_error("vicinityd: listen() failed: " + err);
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    close_if_open(listen_fd_);
    close_if_open(epoll_fd_);
    close_if_open(wake_fd_);
    throw std::runtime_error("vicinityd: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Reserved fd released under EMFILE so one pending connection can be
  // accepted and promptly closed instead of stalling in the backlog.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  start_us_ = now_us();
  {
    const util::MutexLock lock(smu_);
    last_stats_us_ = start_us_;
    last_stats_queries_ = 0;
  }
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  util::log_info("vicinityd listening on ", opts_.host, ":", bound_port_);
}

void Server::stop() {
  bool was_running = true;
  if (!running_.compare_exchange_strong(was_running, false)) return;
  stop_requested_.store(true, std::memory_order_release);
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();
  // Work still queued dies with its connections.
  queue_.clear();
  queued_units_.store(0, std::memory_order_relaxed);
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    if (conns_[fd].active) {
      ::close(static_cast<int>(fd));
      conns_[fd] = Conn{};
    }
  }
  connections_open_.store(0, std::memory_order_relaxed);
  close_if_open(listen_fd_);
  close_if_open(wake_fd_);
  close_if_open(epoll_fd_);
  close_if_open(spare_fd_);
  draining_.store(false, std::memory_order_release);
}

bool Server::drain(std::uint32_t timeout_ms) {
  if (!running_.load(std::memory_order_acquire)) return true;
  draining_.store(true, std::memory_order_release);
  wake_io();
  const std::uint64_t deadline =
      now_us() + static_cast<std::uint64_t>(timeout_ms) * 1000;
  for (;;) {
    // The io thread owns the queue, every flush and every reply, and it
    // publishes this only while draining_ is set, so one idle observation
    // means everything admitted has been answered and flushed.
    if (drain_io_idle_.load(std::memory_order_acquire)) return true;
    if (now_us() >= deadline) return false;
    wake_io();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Server::wake_io() {
  const std::uint64_t one = 1;
  // The eventfd is process-internal plumbing, not peer-facing I/O: the
  // kernel cannot transiently fail it, so injected faults here model
  // nothing — and a fake EAGAIN would break the contract below (real
  // EAGAIN implies a wakeup is already pending; an injected one does
  // not, delaying stop() or drain() until the next poll tick).
  const util::FaultSuppressScope suppress;
  ssize_t n;
  do {
    // Retries everything except EAGAIN, which subsumes the EINTR retry.
    // vicinity-lint: allow(net-syscall-eintr)
    n = fi::write(wake_fd_, &one, sizeof one);
  } while (n < 0 && errno != EAGAIN);
  // EAGAIN means the counter is already saturated: a wakeup is pending,
  // which is all this write was for. Every other failure (EINTR, or an
  // injected fault) must retry — a lost wakeup delays stop() or drain()
  // until the next poll tick.
}

// ---- event-loop side -------------------------------------------------------

int Server::io_timeout_ms() const {
  int t = -1;  // block until an event
  if (draining_.load(std::memory_order_relaxed)) t = 5;
  if (listen_disarmed_) t = t < 0 ? 10 : std::min(t, 10);
  if (opts_.idle_timeout_ms > 0) {
    // Poll a few times per budget so sweeps observe a stall well before
    // it doubles the configured timeout.
    const int tick = std::clamp<int>(
        static_cast<int>(opts_.idle_timeout_ms / 4), 5, 250);
    t = t < 0 ? tick : std::min(t, tick);
  }
  return t;
}

void Server::io_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::vector<WorkItem> flush;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire) && !listen_disarmed_) {
      // Drain step 1: stop accepting. Established connections keep being
      // served until their in-flight replies are flushed.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listen_disarmed_ = true;
      listen_rearm_at_us_ = 0;
    }
    // Queued work means the next flush is due now: poll without blocking.
    const int timeout = queue_.empty() ? io_timeout_ms() : 0;
    int n;
    do {
      n = fi::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    } while (n < 0 && errno == EINTR);
    if (n < 0) break;  // epoll fd itself failed; shut down
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      try {
        if (fd == wake_fd_) {
          std::uint64_t drained = 0;
          ssize_t r;
          do {
            r = fi::read(wake_fd_, &drained, sizeof drained);
          } while (r < 0 && errno == EINTR);
          // EAGAIN: another wakeup raced the drain; the loop re-polls
          // anyway (and under injection, level-triggered epoll simply
          // re-reports the still-readable eventfd).
          continue;
        }
        if (fd == listen_fd_) {
          accept_ready();
          continue;
        }
        if (static_cast<std::size_t>(fd) >= conns_.size() ||
            !conns_[fd].active) {
          continue;  // closed earlier in this same event batch
        }
        if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(fd);
          continue;
        }
        if ((mask & EPOLLIN) != 0) conn_readable(fd);
        if (static_cast<std::size_t>(fd) < conns_.size() &&
            conns_[fd].active && (mask & EPOLLOUT) != 0) {
          conn_writable(fd);
        }
      } catch (const std::bad_alloc&) {
        // Allocation failure (injected or real) while growing one
        // connection's buffers: that connection dies, the server does not.
        if (fd != wake_fd_ && fd != listen_fd_ &&
            static_cast<std::size_t>(fd) < conns_.size() &&
            conns_[fd].active) {
          errors_total_.fetch_add(1, std::memory_order_relaxed);
          close_conn(fd);
        }
      }
    }
    // One flush per round, so frames that arrive while it runs are read
    // (and PING, STATS and BUSY answered) before the next one.
    if (!queue_.empty()) {
      collect_flush(flush);
      process_flush(flush);
      flush.clear();
    }
    const std::uint64_t now = now_us();
    maybe_rearm_listen(now);
    sweep_timeouts(now);
    if (draining_.load(std::memory_order_acquire)) {
      bool idle = queue_.empty();
      for (const Conn& c : conns_) {
        if (c.active && (c.inflight != 0 || !c.out.empty())) {
          idle = false;
          break;
        }
      }
      drain_io_idle_.store(idle, std::memory_order_release);
    }
  }
}

void Server::maybe_rearm_listen(std::uint64_t now) {
  if (!listen_disarmed_ || draining_.load(std::memory_order_relaxed)) return;
  if (now < listen_rearm_at_us_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
    listen_disarmed_ = false;
  }
}

void Server::sweep_timeouts(std::uint64_t now) {
  if (opts_.idle_timeout_ms == 0) return;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(opts_.idle_timeout_ms) * 1000;
  if (now - last_sweep_us_ < budget / 8) return;
  last_sweep_us_ = now;
  for (std::size_t fd = 0; fd < conns_.size(); ++fd) {
    Conn& c = conns_[fd];
    if (!c.active) continue;
    if (c.partial_since_us != 0 && now - c.partial_since_us > budget) {
      // Slow loris: bytes trickle in but a frame never completes. The
      // per-frame clock only resets on a completed frame, so one byte per
      // tick cannot keep a connection alive forever.
      slow_client_closes_total_.fetch_add(1, std::memory_order_relaxed);
      close_conn(static_cast<int>(fd));
      continue;
    }
    if (!c.out.empty() && now - c.last_progress_us > budget) {
      // Slow reader: replies are queued but the peer accepts no bytes.
      slow_client_closes_total_.fetch_add(1, std::memory_order_relaxed);
      close_conn(static_cast<int>(fd));
      continue;
    }
    if (c.inflight == 0 && c.out.empty() && c.in.empty() &&
        now - c.last_activity_us > budget) {
      idle_closes_total_.fetch_add(1, std::memory_order_relaxed);
      close_conn(static_cast<int>(fd));
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    int fd;
    do {
      fd = fi::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) handle_accept_overload();
      // EAGAIN/EWOULDBLOCK: accepted everything pending. Other errnos
      // (ECONNABORTED, ...) are per-connection and transient; retry on the
      // next readiness notification rather than spinning.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (static_cast<std::size_t>(fd) >= conns_.size()) {
      conns_.resize(static_cast<std::size_t>(fd) + 1);
    }
    Conn& c = conns_[fd];
    c = Conn{};
    c.gen = next_gen_++;
    c.active = true;
    c.last_activity_us = c.last_progress_us = now_us();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      c = Conn{};
      ::close(fd);
      continue;
    }
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::handle_accept_overload() {
  // Out of fds. Two-step degradation instead of a level-triggered busy
  // spin (where epoll re-reports the pending backlog immediately and
  // accept fails at 100% CPU forever):
  //  1. Release the reserved spare fd, accept one pending connection and
  //     close it immediately — that peer sees a prompt close instead of
  //     hanging in the listen backlog until its own timeout.
  //  2. Disarm the listen fd and re-arm after a grace period, so the
  //     event loop keeps serving established connections at full speed
  //     while the process sits at its fd limit.
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
    int victim;
    do {
      victim = fi::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    } while (victim < 0 && errno == EINTR);
    if (victim >= 0) ::close(victim);
    spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  }
  if (!listen_disarmed_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    listen_disarmed_ = true;
    listen_rearm_at_us_ = now_us() + kListenRearmDelayUs;
    util::log_debug("vicinityd: fd limit reached; pausing accepts for ",
                    kListenRearmDelayUs / 1000, "ms");
  }
}

void Server::conn_readable(int fd) {
  for (;;) {
    Conn& c = conns_[fd];
    if (!c.active) return;
    const IoResult r = c.in.fill_from_fd(fd);
    switch (r.status) {
      case IoStatus::kOk:
        parse_frames(fd);
        if (static_cast<std::size_t>(fd) >= conns_.size() ||
            !conns_[fd].active || conns_[fd].close_after_flush) {
          return;  // desynced or closed: stop consuming this stream
        }
        continue;
      case IoStatus::kWouldBlock:
        return;
      case IoStatus::kEof: {
        Conn& cc = conns_[fd];
        cc.read_closed = true;
        // Answer what was fully received before the FIN, then close.
        parse_frames(fd);
        if (static_cast<std::size_t>(fd) < conns_.size() &&
            conns_[fd].active) {
          flush_conn(fd);
        }
        return;
      }
      case IoStatus::kError:
        close_conn(fd);
        return;
    }
  }
}

void Server::conn_writable(int fd) { flush_conn(fd); }

void Server::parse_frames(int fd) {
  bool consumed_any = false;
  for (;;) {
    Conn& c = conns_[fd];
    if (!c.active || c.close_after_flush) return;
    if (c.in.size() < kFrameHeaderBytes) break;
    std::uint8_t hdr[kFrameHeaderBytes];
    c.in.peek(hdr, kFrameHeaderBytes);
    const FrameHeader h =
        decode_header(std::span<const std::uint8_t>(hdr, kFrameHeaderBytes));
    const std::string err =
        validate_request_header(h, opts_.max_payload_bytes);
    if (!err.empty()) {
      // The stream is desynchronized (the next frame boundary is
      // unknowable), so: report, then drain-and-close.
      errors_total_.fetch_add(1, std::memory_order_relaxed);
      send_error(fd, h.request_id, h.op, Status::kError, err);
      Conn& c2 = conns_[fd];
      if (c2.active) {
        c2.in.consume(c2.in.size());
        c2.close_after_flush = true;
        flush_conn(fd);
      }
      return;
    }
    if (c.in.size() < kFrameHeaderBytes + h.payload_len) break;  // partial
    c.in.consume(kFrameHeaderBytes);
    std::vector<std::uint8_t> payload(h.payload_len);
    c.in.peek(payload.data(), payload.size());
    c.in.consume(payload.size());
    dispatch(fd, h, payload);
    consumed_any = true;
  }
  // Slow-loris bookkeeping. The mid-frame clock (partial_since_us) starts
  // when bytes sit in the buffer without forming a complete frame and only
  // restarts when a frame completes — a peer dribbling one byte per tick
  // keeps last_activity_us fresh but can never reset this clock, so
  // sweep_timeouts() evicts it after one idle budget.
  Conn& c = conns_[fd];
  if (!c.active) return;
  const std::uint64_t now = now_us();
  if (consumed_any) c.last_activity_us = now;
  if (c.in.empty()) {
    c.partial_since_us = 0;
  } else if (consumed_any || c.partial_since_us == 0) {
    c.partial_since_us = now;
  }
}

void Server::dispatch(int fd, const FrameHeader& header,
                      std::span<const std::uint8_t> payload) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (draining_.load(std::memory_order_acquire) && header.op != Op::kPing &&
      header.op != Op::kStats) {
    // Drain step 2: no new work enters the queue; only replies already
    // owed leave. PING/STATS stay answerable so health checks see the
    // drain progressing.
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    send_error(fd, header.request_id, header.op, Status::kBusy,
               "server draining; retry elsewhere");
    return;
  }
  const NodeId num_nodes = oracle_->graph().num_nodes();
  try {
    FrameReader r(payload);
    WorkItem item;
    item.op = header.op;
    item.fd = fd;
    item.gen = conns_[fd].gen;
    item.request_id = header.request_id;
    item.enqueue_us = now_us();
    switch (header.op) {
      case Op::kPing: {
        r.expect_end();
        send_frame(fd, {0, kProtocolVersion, Op::kPing, Status::kOk,
                        header.request_id},
                   {});
        return;
      }
      case Op::kStats: {
        r.expect_end();
        answer_stats(fd, header.request_id);
        return;
      }
      case Op::kDistance:
      case Op::kPath: {
        item.s = r.u32();
        item.t = r.u32();
        r.expect_end();
        if (item.s >= num_nodes || item.t >= num_nodes) {
          throw ProtocolError("node id out of range");
        }
        break;
      }
      case Op::kDistances: {
        item.s = r.u32();
        const std::uint32_t n = r.u32();
        if (r.remaining() != static_cast<std::size_t>(n) * 4) {
          throw ProtocolError("target count does not match payload length");
        }
        if (item.s >= num_nodes) throw ProtocolError("node id out of range");
        item.targets.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const NodeId t = r.u32();
          if (t >= num_nodes) throw ProtocolError("node id out of range");
          item.targets.push_back(t);
        }
        break;
      }
      case Op::kApplyUpdate: {
        const std::uint8_t kind = r.u8();
        r.u8();
        r.u8();
        r.u8();  // pad
        const NodeId u = r.u32();
        const NodeId v = r.u32();
        const Weight w = r.u32();
        r.expect_end();
        if (kind > 1) throw ProtocolError("unknown update kind");
        if (u >= num_nodes || v >= num_nodes) {
          throw ProtocolError("node id out of range");
        }
        if (graph_ == nullptr) {
          throw ProtocolError(
              "server is a frozen snapshot (started without --graph); "
              "APPLY_UPDATE refused");
        }
        item.update = kind == 0 ? core::GraphUpdate::insert(u, v, w)
                                : core::GraphUpdate::remove(u, v);
        break;
      }
    }
    if (!enqueue_work(std::move(item))) {
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      send_error(fd, header.request_id, header.op, Status::kBusy,
                 "admission queue full; retry");
      return;
    }
    conns_[fd].inflight++;
  } catch (const ProtocolError& e) {
    // A well-framed but malformed payload: the stream is still in sync, so
    // answer ERROR and keep the connection.
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    send_error(fd, header.request_id, header.op, Status::kError, e.what());
  }
}

void Server::answer_stats(int fd, std::uint64_t request_id) {
  const StatsReply reply = stats_snapshot();
  std::vector<std::uint8_t> payload;
  FrameWriter w(payload);
  write_stats_reply(w, reply);
  send_frame(fd, {static_cast<std::uint32_t>(payload.size()),
                  kProtocolVersion, Op::kStats, Status::kOk, request_id},
             payload);
}

StatsReply Server::stats_snapshot() {
  StatsReply r;
  r.epoch = engine_.epoch();
  r.uptime_us = now_us() - start_us_;
  r.queries_total = queries_total_.load(std::memory_order_relaxed);
  r.requests_total = requests_total_.load(std::memory_order_relaxed);
  r.batches_total = batches_total_.load(std::memory_order_relaxed);
  r.shed_total = shed_total_.load(std::memory_order_relaxed);
  r.errors_total = errors_total_.load(std::memory_order_relaxed);
  r.updates_total = updates_total_.load(std::memory_order_relaxed);
  r.connections_open = connections_open_.load(std::memory_order_relaxed);
  r.connections_total = connections_total_.load(std::memory_order_relaxed);
  r.max_batch = max_batch_seen_.load(std::memory_order_relaxed);
  r.timeouts_total = timeouts_total_.load(std::memory_order_relaxed);
  r.idle_closes = idle_closes_total_.load(std::memory_order_relaxed);
  r.slow_client_closes =
      slow_client_closes_total_.load(std::memory_order_relaxed);
  if (const cache::ResultCache* rc = engine_.result_cache()) {
    const cache::ResultCacheCounters c = rc->counters();
    r.cache_hits = c.hits;
    r.cache_misses = c.misses;
    r.cache_inserts = c.inserts;
    r.cache_evictions = c.evictions;
    r.cache_hit_rate = c.hit_rate();
  }
  r.pending = queued_units_.load(std::memory_order_relaxed);
  std::vector<double> window;
  {
    const util::MutexLock lock(smu_);
    const std::uint64_t now = now_us();
    const double window_s =
        static_cast<double>(now - last_stats_us_) / 1e6;
    if (window_s > 0) {
      r.qps = static_cast<double>(r.queries_total - last_stats_queries_) /
              window_s;
    }
    last_stats_us_ = now;
    last_stats_queries_ = r.queries_total;
    window.assign(latency_ring_.begin(),
                  latency_ring_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  // Only a plain copy holds smu_: record_latencies() takes it after every
  // flush, and filling and sorting a SampleSet takes milliseconds.
  if (!window.empty()) {
    util::SampleSet samples;
    samples.reserve(window.size());
    for (const double v : window) samples.add(v);
    r.p50_us = samples.percentile(50);
    r.p90_us = samples.percentile(90);
    r.p99_us = samples.percentile(99);
    r.max_us = samples.max();
  }
  return r;
}

void Server::send_frame(int fd, const FrameHeader& header,
                        std::span<const std::uint8_t> payload) {
  Conn& c = conns_[fd];
  if (!c.active) return;
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  encode_frame(header, payload, frame);
  if (c.out.empty()) c.last_progress_us = now_us();  // slow-reader clock
  c.out.append(frame.data(), frame.size());
  if (enforce_out_cap(fd)) return;
  flush_conn(fd);
}

bool Server::enforce_out_cap(int fd) {
  Conn& c = conns_[fd];
  if (!c.active) return true;
  if (opts_.max_conn_buffer_bytes == 0 ||
      c.out.size() <= opts_.max_conn_buffer_bytes) {
    return false;
  }
  // The peer pipelines requests faster than it reads replies; buffering
  // more would let one connection grow server memory without bound.
  slow_client_closes_total_.fetch_add(1, std::memory_order_relaxed);
  util::log_debug("vicinityd: evicting slow reader fd=", fd, " (",
                  c.out.size(), " reply bytes buffered)");
  close_conn(fd);
  return true;
}

void Server::send_error(int fd, std::uint64_t request_id, Op op,
                        Status status, const std::string& message) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(message.data());
  send_frame(fd, {static_cast<std::uint32_t>(message.size()),
                  kProtocolVersion, op, status, request_id},
             std::span<const std::uint8_t>(bytes, message.size()));
}

void Server::flush_conn(int fd) {
  Conn& c = conns_[fd];
  if (!c.active) return;
  const IoResult r = c.out.drain_to_fd(fd);
  if (r.status == IoStatus::kError) {
    close_conn(fd);
    return;
  }
  if (r.bytes > 0) c.last_progress_us = now_us();
  if (c.out.empty()) {
    if (c.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
      c.want_write = false;
    }
    if ((c.close_after_flush || c.read_closed) && c.inflight == 0) {
      close_conn(fd);
    }
    return;
  }
  if (!c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    c.want_write = true;
  }
}

void Server::close_conn(int fd) {
  Conn& c = conns_[fd];
  if (!c.active) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  c = Conn{};  // gen mismatch now voids the replies to its queued requests
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::deliver(const std::vector<WorkItem>& flush,
                     const std::vector<std::vector<std::uint8_t>>& frames) {
  // Two passes: append every frame, then flush each connection once — a
  // whole flush of replies to one connection costs one sendmsg, not one
  // per reply.
  std::vector<std::pair<int, std::uint64_t>> dirty;
  for (std::size_t i = 0; i < flush.size(); ++i) {
    const int fd = flush[i].fd;
    const std::uint64_t gen = flush[i].gen;
    Conn& c = conns_[fd];
    if (!c.active || c.gen != gen) continue;  // connection was replaced
    if (c.inflight > 0) c.inflight--;
    if (c.out.empty()) c.last_progress_us = now_us();
    try {
      c.out.append(frames[i].data(), frames[i].size());
    } catch (const std::bad_alloc&) {
      // Buffer growth failed (injected or real): this connection dies, the
      // rest of the flush still delivers.
      errors_total_.fetch_add(1, std::memory_order_relaxed);
      close_conn(fd);
      continue;
    }
    if (enforce_out_cap(fd)) continue;
    if (dirty.empty() || dirty.back().first != fd) dirty.emplace_back(fd, gen);
  }
  for (const auto& [fd, gen] : dirty) {
    const Conn& c = conns_[fd];
    // An earlier flush in this loop may have errored out and recycled the
    // slot; the generation check keeps us off a stranger's connection.
    if (!c.active || c.gen != gen) continue;
    flush_conn(fd);
  }
}

// ---- flushes ---------------------------------------------------------------

bool Server::enqueue_work(WorkItem&& item) {
  const std::size_t units = item.units();
  if (queued_units_.load(std::memory_order_relaxed) + units >
      opts_.queue_depth) {
    return false;
  }
  queued_units_.fetch_add(units, std::memory_order_relaxed);
  queue_.push_back(std::move(item));
  return true;
}

void Server::collect_flush(std::vector<WorkItem>& flush) {
  // Work-conserving: the engine is free, so run what is queued now. An
  // update at the head runs alone (it is a fence); otherwise take requests
  // until max_batch units or the next update. The head is always taken, so
  // a DISTANCES wider than max_batch runs whole instead of blocking the
  // queue.
  const bool fence = queue_.front().op == Op::kApplyUpdate;
  std::size_t taken = 0;
  do {
    taken += queue_.front().units();
    flush.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } while (!fence && !queue_.empty() && taken < opts_.max_batch &&
           queue_.front().op != Op::kApplyUpdate);
  queued_units_.fetch_sub(taken, std::memory_order_relaxed);
}

void Server::process_flush(const std::vector<WorkItem>& flush) {
  std::vector<std::vector<std::uint8_t>> frames(flush.size());

  // An update flush is always a single item (collect_flush's fence).
  if (flush.front().op == Op::kApplyUpdate) {
    const WorkItem& it = flush.front();
    try {
      const core::UpdateStats us = engine_.apply_update(*graph_, it.update);
      updates_total_.fetch_add(1, std::memory_order_relaxed);
      UpdateReply reply;
      reply.epoch = engine_.epoch();
      reply.affected_vicinities =
          static_cast<std::uint32_t>(us.affected_vicinities);
      reply.boundary_patches = static_cast<std::uint32_t>(us.boundary_patches);
      reply.landmark_rows_refreshed =
          static_cast<std::uint32_t>(us.landmark_rows_refreshed);
      reply.full_rebuild = us.full_rebuild;
      std::vector<std::uint8_t> payload;
      FrameWriter w(payload);
      write_update_reply(w, reply);
      frames[0] =
          make_frame(Op::kApplyUpdate, Status::kOk, it.request_id, payload);
    } catch (const std::exception& e) {
      errors_total_.fetch_add(1, std::memory_order_relaxed);
      frames[0] = make_error_frame(Op::kApplyUpdate, Status::kError,
                                   it.request_id, e.what());
    }
    record_latencies({static_cast<double>(now_us() - it.enqueue_us)});
    deliver(flush, frames);
    return;
  }

  // Per-request deadline: items that waited out --request-timeout-ms in
  // the admission queue are answered kTimeout and never executed — the
  // client already gave up on them, and running them anyway would spend
  // engine time making every later request in this batch later too.
  std::vector<bool> expired;
  const std::uint64_t deadline_us =
      static_cast<std::uint64_t>(opts_.request_timeout_ms) * 1000;
  if (deadline_us > 0) {
    const std::uint64_t now = now_us();
    expired.assign(flush.size(), false);
    for (std::size_t i = 0; i < flush.size(); ++i) {
      expired[i] = now - flush[i].enqueue_us > deadline_us;
    }
  }
  const auto is_expired = [&](std::size_t i) {
    return !expired.empty() && expired[i];
  };

  // Coalesce every distance-type unit of the flush into one engine batch.
  std::vector<core::Query> queries;
  std::vector<std::size_t> offsets(flush.size(), 0);
  for (std::size_t i = 0; i < flush.size(); ++i) {
    const WorkItem& it = flush[i];
    offsets[i] = queries.size();
    if (is_expired(i)) continue;
    switch (it.op) {
      case Op::kDistance:
        queries.push_back({it.s, it.t});
        break;
      case Op::kDistances:
        for (const NodeId t : it.targets) queries.push_back({it.s, t});
        break;
      default:
        break;  // kPath answered via engine_.path below
    }
  }

  std::vector<core::QueryResult> results(queries.size());
  std::uint64_t epoch = 0;
  std::string batch_error;
  try {
    epoch = engine_.run_batch_epoch(queries, results);
  } catch (const std::exception& e) {
    batch_error = e.what();  // defensive: ids were validated at parse time
  }
  if (!queries.empty() && batch_error.empty()) {
    batches_total_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
    while (seen < queries.size() &&
           !max_batch_seen_.compare_exchange_weak(
               seen, queries.size(), std::memory_order_relaxed)) {
    }
  }

  const auto to_record = [](const core::QueryResult& qr) {
    DistanceRecord rec;
    rec.dist = qr.dist;
    rec.method = static_cast<std::uint8_t>(qr.method);
    rec.exact = qr.exact;
    return rec;
  };

  std::vector<double> latencies;
  latencies.reserve(flush.size());
  std::uint64_t answered_queries = 0;

  for (std::size_t i = 0; i < flush.size(); ++i) {
    const WorkItem& it = flush[i];
    std::vector<std::uint8_t>& frame = frames[i];
    if (is_expired(i)) {
      timeouts_total_.fetch_add(1, std::memory_order_relaxed);
      frame = make_error_frame(
          it.op, Status::kTimeout, it.request_id,
          "request exceeded the " +
              std::to_string(opts_.request_timeout_ms) +
              "ms deadline before execution");
      // Not recorded in the latency window: percentiles describe work the
      // engine performed, and a timeout is precisely work it refused.
      continue;
    }
    if (!batch_error.empty() && it.op != Op::kPath) {
      frame =
          make_error_frame(it.op, Status::kError, it.request_id, batch_error);
      errors_total_.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::vector<std::uint8_t> payload;
      FrameWriter w(payload);
      switch (it.op) {
        case Op::kDistance: {
          w.u64(epoch);
          write_distance_record(w, to_record(results[offsets[i]]));
          frame =
              make_frame(Op::kDistance, Status::kOk, it.request_id, payload);
          answered_queries += 1;
          break;
        }
        case Op::kDistances: {
          w.u64(epoch);
          w.u32(static_cast<std::uint32_t>(it.targets.size()));
          for (std::size_t k = 0; k < it.targets.size(); ++k) {
            write_distance_record(w, to_record(results[offsets[i] + k]));
          }
          frame =
              make_frame(Op::kDistances, Status::kOk, it.request_id, payload);
          answered_queries += it.targets.size();
          break;
        }
        case Op::kPath: {
          try {
            const core::PathResult pr =
                engine_.oracle().path(it.s, it.t, batch_ctx_);
            DistanceRecord rec;
            rec.dist = pr.dist;
            rec.method = static_cast<std::uint8_t>(pr.method);
            rec.exact = pr.exact;
            w.u64(engine_.epoch());
            write_distance_record(w, rec);
            w.u32(static_cast<std::uint32_t>(pr.path.size()));
            for (const NodeId node : pr.path) w.u32(node);
            frame =
                make_frame(Op::kPath, Status::kOk, it.request_id, payload);
            answered_queries += 1;
          } catch (const std::exception& e) {
            errors_total_.fetch_add(1, std::memory_order_relaxed);
            frame = make_error_frame(Op::kPath, Status::kError,
                                     it.request_id, e.what());
          }
          break;
        }
        default:
          frame = make_error_frame(it.op, Status::kError, it.request_id,
                                   "unexpected op in batch");
          break;
      }
    }
    latencies.push_back(static_cast<double>(now_us() - it.enqueue_us));
  }

  queries_total_.fetch_add(answered_queries, std::memory_order_relaxed);
  record_latencies(latencies);
  deliver(flush, frames);
}

void Server::record_latencies(const std::vector<double>& samples_us) {
  const util::MutexLock lock(smu_);
  for (const double s : samples_us) {
    latency_ring_[latency_next_] = s;
    latency_next_ = (latency_next_ + 1) % latency_ring_.size();
    if (latency_count_ < latency_ring_.size()) latency_count_++;
  }
}

}  // namespace vicinity::net
