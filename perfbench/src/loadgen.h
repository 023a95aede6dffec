// Open-loop load generator over net::Client, safe against coordinated
// omission: every request is timed from its due time (not from when the
// sender got around to it), all requests due at one wake-up leave in one
// write, and the sender's own lateness is reported so a point where the
// generator, not the server, fell behind is marked invalid.
//
// Two threads per point: the sender (spawned here) and the receiver (the
// calling thread), sharing one connection: send_bytes() and recv_some()
// touch disjoint socket directions.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "workload.h"

namespace perfbench {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// A reply kept for the ground-truth check.
struct SampledReply {
  Request req;
  std::vector<NodeId> targets;  ///< DISTANCES only
  std::uint64_t epoch = 0;
  std::vector<vicinity::net::DistanceRecord> records;
  std::vector<NodeId> path;  ///< PATH only
};

struct UpdateAck {
  Request req;
  bool ok = false;
  double latency_us = kNever;
  vicinity::net::UpdateReply reply;
};

struct PointStats {
  double rate = 0.0;
  double seconds = 0.0;
  /// Half-second slices the requests fall into (see slice_percentile).
  std::size_t slices = 1;
  std::uint64_t reads = 0;  ///< read requests attempted
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t ok_in_window = 0;  ///< OK reads received inside the window
  /// Per read, from due time to reply; kNever when the read failed.
  std::vector<double> read_us;
  std::vector<double> path_us;  ///< OK PATH replies only
  std::vector<double> late_us;  ///< per request: write start - due
  std::uint64_t send_calls = 0;
  double send_blocked_s = 0.0;  ///< time spent inside send_bytes
  std::vector<UpdateAck> updates;
  std::vector<SampledReply> samples;

  std::uint64_t failed() const { return busy + timeouts + errors + unanswered; }
  double fail_ratio() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(failed()) /
                            static_cast<double>(reads);
  }
  double offered_rate() const { return static_cast<double>(reads) / seconds; }
  double achieved_rate() const {
    return static_cast<double>(ok_in_window) / seconds;
  }
  /// The generator fell behind on its own: its median send ran late while
  /// its writes were not blocked by the server.
  bool generator_behind() const;

  /// Pools another point at the same rate into this one.
  void absorb(PointStats&& other);
};

struct PointOptions {
  unsigned fanout = 0;
  /// Keep every k-th read reply for the ground-truth check (0 = none).
  std::size_t sample_every = 0;
  /// Called from the receiver thread about every 50ms while waiting (the
  /// traced run polls server stats from here).
  std::function<void()> tick;
};

/// Sends `plan` over `conn` on its schedule and collects every reply.
PointStats run_point(vicinity::net::Client& conn, const Plan& plan,
                     const PointOptions& options);

/// Percentile (0..100) by nearest rank; kNever entries sort last.
double percentile(std::vector<double> v, double q);
/// First quartile, over `slices` contiguous equal slices of `v`, of each
/// slice's percentile q. With `v` in arrival order these are time slices:
/// stalls of the host that hit up to three quarters of them cannot move
/// the result, while a change in the program's own latency moves every
/// slice and so the result too.
double slice_percentile(const std::vector<double>& v, double q,
                        std::size_t slices);
double median(std::vector<double> v);
/// Mean of the middle half of `v` (interquartile mean): a central value
/// that, unlike the median, does not jump between neighbouring samples
/// when those are far apart (as the repair costs of different edges are).
double interquartile_mean(std::vector<double> v);

std::uint64_t now_ns();

}  // namespace perfbench
