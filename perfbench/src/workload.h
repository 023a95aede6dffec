// Workload definitions and the seeded request generator of the serving
// benchmark. A workload fixes the traffic mix (ops, key skew, cache, update
// rate) and its rate points; the generator turns (workload, seed, rate,
// duration) into a concrete open-loop schedule: Poisson arrival times plus
// the wire frames, pre-encoded back to back so the sender only ever copies
// bytes that are already due.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/types.h"

namespace perfbench {

using vicinity::NodeId;

enum class Kind : std::uint8_t { kDistance, kDistances, kPath, kInsert, kDelete };

inline bool is_read(Kind k) { return k != Kind::kInsert && k != Kind::kDelete; }

struct WorkloadSpec {
  std::string name;
  /// Targets per DISTANCES request; 0 sends single-pair DISTANCE.
  unsigned fanout = 0;
  /// Zipf exponent over node ids for sources and targets; 0 = uniform.
  double zipf = 0.0;
  /// Share of reads sent as PATH instead of DISTANCE.
  double path_share = 0.0;
  /// Server result-cache budget (0 = no cache).
  std::size_t cache_mb = 0;
  /// Insert+delete toggle pairs per second mixed into the read stream.
  double update_pairs_per_s = 0.0;
  /// Fixed rate points (requests/s of the mix): ~20% and ~70% of the knee.
  double low_rate = 0.0;
  double high_rate = 0.0;
  /// Where the knee search starts, and its grid step (requests/s), under
  /// a tenth of the knee.
  double knee_start = 0.0;
  double step = 0.0;
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string> workload_names();

struct Request {
  Kind kind = Kind::kDistance;
  NodeId s = 0;  ///< source, or edge endpoint for updates
  NodeId t = 0;  ///< target (unused for DISTANCES), or edge endpoint
  std::uint32_t first_target = 0;  ///< DISTANCES: offset into Plan::targets
};

/// One open-loop rate point, fully generated before it starts.
struct Plan {
  double rate = 0.0;     ///< offered read rate, requests/s
  double seconds = 0.0;  ///< send window
  std::uint64_t first_id = 0;  ///< request_id of req[0]; ids are consecutive
  std::vector<Request> req;
  std::vector<NodeId> targets;
  std::vector<std::uint64_t> due_ns;  ///< send time, from the point's start
  std::vector<std::uint8_t> wire;     ///< every frame, in due order
  std::vector<std::size_t> offset;    ///< frame i = wire[offset[i], offset[i+1])

  std::size_t size() const { return req.size(); }
  std::span<const NodeId> targets_of(const Request& r, unsigned fanout) const {
    if (r.kind != Kind::kDistances) return {};
    return {targets.data() + r.first_target, fanout};
  }
};

/// Deterministic in (spec, graph, seed) and the sequence of plan() calls.
/// The seed drives reads and arrival times; the toggle-edge stream is fixed
/// like the graph (the k-th toggle of every run is the same edge), because
/// repair cost varies by orders of magnitude between edges and a few
/// toggles per run could not otherwise give a repeatable update latency.
/// `pristine` is a graph copy nobody mutates: toggle edges are drawn as its
/// non-edges, and every planned toggle pair restores the edge before the
/// point ends, so each point starts from the pristine edge set.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, const vicinity::graph::Graph& pristine,
            std::uint64_t seed);

  /// Reads at `rate` for `seconds`, plus the spec's update toggles when
  /// `with_updates`: the pairs due at the spec's rate over all planned
  /// time so far, each insert at 1/4 and its delete at 3/4 of its share of
  /// the point.
  Plan plan(double rate, double seconds, bool with_updates,
            std::uint64_t first_id);

  /// `pairs` insert/delete toggles of fresh non-edges, for the update
  /// replay and the idle update probe.
  std::vector<Request> toggles(std::size_t pairs);

  /// Read requests only (for the per-layer replay of the same mix).
  std::vector<Request> reads(std::size_t n, std::vector<NodeId>& targets);

  const WorkloadSpec& spec() const { return spec_; }

 private:
  NodeId node();
  Request read(std::vector<NodeId>& targets);
  Request fresh_non_edge();

  WorkloadSpec spec_;
  const vicinity::graph::Graph& g_;
  vicinity::util::Rng rng_;
  vicinity::util::Rng edge_rng_;
  std::vector<double> zipf_cdf_;
  double update_credit_ = 0.0;  ///< toggle pairs owed to later points
};

void encode_request(const Request& r, std::span<const NodeId> targets,
                    std::uint64_t request_id, std::vector<std::uint8_t>& out);

}  // namespace perfbench
