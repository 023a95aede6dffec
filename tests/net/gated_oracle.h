// GatedOracle: a test double that lets a serving test hold the server's
// event loop inside a flush. It decorates a real oracle and forwards every
// call to it, except that distance() blocks while the gate is closed; it
// also counts distance() calls. QueryEngine::run_batch_epoch, which the
// event loop calls for every query flush, returns only after each
// distance() in the flush has, so a closed gate holds the event loop and
// everything sent meanwhile waits, unread, in the server's socket buffer.
//
// The round after the held flush reads all of it (wait_acked() makes sure
// it has all arrived), admits it, and runs the next flush. let_through(n)
// lets n more distance() calls pass and holds the one after: with
// max_batch = 1 that holds the next flush, so requests admitted with it
// stay queued behind a running flush.
//
// Open the gate on every test path before the server stops: stop() joins
// an event loop blocked inside the oracle. Fixtures do it in TearDown().
#pragma once

#include <linux/sockios.h>
#include <sys/ioctl.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/any_oracle.h"
#include "net/client.h"
#include "net/server.h"

namespace vicinity::testing {

class GatedOracle final : public core::AnyOracle {
 public:
  explicit GatedOracle(std::shared_ptr<core::AnyOracle> inner)
      : inner_(std::move(inner)) {}

  void close_gate() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    passes_ = 0;
  }
  void open_gate() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Lets n more distance() calls through a closed gate; the call after
  /// them blocks again.
  void let_through(std::uint64_t n) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      passes_ += n;
    }
    cv_.notify_all();
  }
  /// distance() calls so far, counted on entry (before the gate).
  std::uint64_t distance_calls() const {
    return calls_.load(std::memory_order_acquire);
  }

  const char* backend_name() const override { return inner_->backend_name(); }
  core::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  const graph::Graph& graph() const override { return inner_->graph(); }
  core::QueryResult distance(NodeId s, NodeId t,
                             core::QueryContext& ctx) const override {
    calls_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_ || passes_ > 0; });
      if (!open_) --passes_;
    }
    return inner_->distance(s, t, ctx);
  }
  core::PathResult path(NodeId s, NodeId t,
                        core::QueryContext& ctx) const override {
    return inner_->path(s, t, ctx);
  }
  core::UpdateStats apply_update(graph::Graph& g,
                                 const core::GraphUpdate& update) override {
    return inner_->apply_update(g, update);
  }
  void save(std::ostream& out) const override { inner_->save(out); }
  core::OracleMemoryStats memory_stats() const override {
    return inner_->memory_stats();
  }
  const core::VicinityOracle* as_undirected() const override {
    return inner_->as_undirected();
  }
  const core::VicinityOracle* as_directed() const override {
    return inner_->as_directed();
  }

 private:
  std::shared_ptr<core::AnyOracle> inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = true;                 // guarded by mu_
  mutable std::uint64_t passes_ = 0;  // guarded by mu_
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// Polls `done` every millisecond for up to 10 s; true once it holds.
template <class Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Closes the gate, sends DISTANCE(s, t) on `client` and waits until the
/// event loop holds it inside the oracle. Returns its request id, or 0
/// when the flush never reached the gate.
inline std::uint64_t hold_flush(GatedOracle& gate, net::Client& client,
                                NodeId s, NodeId t) {
  gate.close_gate();
  const std::uint64_t before = gate.distance_calls();
  const std::uint64_t id = client.send_distance(s, t);
  return eventually([&] { return gate.distance_calls() == before + 1; })
             ? id
             : 0;
}

/// Waits until the server's kernel has acknowledged every byte sent on
/// `client` (SIOCOUTQ reads 0), so the round after a held flush reads the
/// whole backlog at once.
inline bool wait_acked(const net::Client& client) {
  return eventually([&] {
    int unacked = -1;
    return ::ioctl(client.fd(), SIOCOUTQ, &unacked) == 0 && unacked == 0;
  });
}

/// Waits until exactly `units` query units are queued behind a held flush.
inline bool queued_units_reach(net::Server& server, std::uint64_t units) {
  return eventually([&] { return server.stats_snapshot().pending == units; });
}

}  // namespace vicinity::testing
