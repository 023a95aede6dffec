#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/protocol.h"

namespace perfbench {

namespace {

// Rates are requests/s of each workload's own mix. low and high sit at about
// 25% and 60% of the rate where read p90 reaches 1 ms with 2 engine lanes on
// a 4-core host; knee_start is where the traced knee search begins.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {.name = "distance-uniform",
       .low_rate = 3'000,
       .high_rate = 7'000,
       .knee_start = 20'000,
       .step = 1'000},
      {.name = "distances-fanout",
       .fanout = 16,
       .low_rate = 200,
       .high_rate = 800,
       .knee_start = 1'600,
       .step = 50},
      {.name = "mixed-zipf-updates",
       .zipf = 1.0,
       .path_share = 0.10,
       .cache_mb = 64,
       .update_pairs_per_s = 2.0,
       .low_rate = 2'000,
       .high_rate = 7'000,
       .knee_start = 20'000,
       .step = 1'000},
  };
  return kSpecs;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

Generator::Generator(const WorkloadSpec& spec,
                     const vicinity::graph::Graph& pristine,
                     std::uint64_t seed)
    : spec_(spec),
      g_(pristine),
      rng_(vicinity::util::mix64(seed ^ 0x7265716eull)),
      edge_rng_(0x65646765ull) {
  if (spec_.zipf > 0.0) {
    zipf_cdf_.resize(g_.num_nodes());
    double acc = 0.0;
    for (std::size_t i = 0; i < zipf_cdf_.size(); ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), spec_.zipf);
      zipf_cdf_[i] = acc;
    }
    for (double& c : zipf_cdf_) c /= acc;
  }
}

NodeId Generator::node() {
  if (zipf_cdf_.empty()) {
    return static_cast<NodeId>(rng_.next_below(g_.num_nodes()));
  }
  const double u = rng_.next_double();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<NodeId>(
      std::min<std::size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1));
}

Request Generator::read(std::vector<NodeId>& targets) {
  Request r;
  r.s = node();
  if (spec_.fanout > 0) {
    r.kind = Kind::kDistances;
    r.first_target = static_cast<std::uint32_t>(targets.size());
    for (unsigned k = 0; k < spec_.fanout; ++k) targets.push_back(node());
    return r;
  }
  r.t = node();
  r.kind = spec_.path_share > 0.0 && rng_.next_bool(spec_.path_share)
               ? Kind::kPath
               : Kind::kDistance;
  return r;
}

Request Generator::fresh_non_edge() {
  // A fresh draw per toggle; a toggled edge is always deleted again before
  // the next one is drawn, so checking the pristine graph suffices.
  for (;;) {
    const auto u = static_cast<NodeId>(edge_rng_.next_below(g_.num_nodes()));
    const auto v = static_cast<NodeId>(edge_rng_.next_below(g_.num_nodes()));
    if (u != v && !g_.has_edge(u, v)) {
      return Request{.kind = Kind::kInsert, .s = u, .t = v};
    }
  }
}

std::vector<Request> Generator::toggles(std::size_t pairs) {
  std::vector<Request> out;
  for (std::size_t k = 0; k < pairs; ++k) {
    Request ins = fresh_non_edge();
    Request del = ins;
    del.kind = Kind::kDelete;
    out.push_back(ins);
    out.push_back(del);
  }
  return out;
}

std::vector<Request> Generator::reads(std::size_t n,
                                      std::vector<NodeId>& targets) {
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(read(targets));
  return out;
}

Plan Generator::plan(double rate, double seconds, bool with_updates,
                     std::uint64_t first_id) {
  if (rate <= 0.0 || seconds <= 0.0) {
    throw std::invalid_argument("plan: rate and seconds must be positive");
  }
  Plan p;
  p.rate = rate;
  p.seconds = seconds;
  p.first_id = first_id;
  const double window_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate;

  // Toggle times, merged into the Poisson read stream below.
  std::vector<std::pair<std::uint64_t, Request>> updates;
  if (with_updates && spec_.update_pairs_per_s > 0.0) {
    update_credit_ += seconds * spec_.update_pairs_per_s;
    const auto pairs = static_cast<std::size_t>(update_credit_);
    update_credit_ -= static_cast<double>(pairs);
    const double period_ns = window_ns / static_cast<double>(std::max<std::size_t>(1, pairs));
    const std::vector<Request> t = toggles(pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
      const double base = static_cast<double>(k) * period_ns;
      updates.emplace_back(static_cast<std::uint64_t>(base + 0.25 * period_ns),
                           t[2 * k]);
      updates.emplace_back(static_cast<std::uint64_t>(base + 0.75 * period_ns),
                           t[2 * k + 1]);
    }
  }

  p.req.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
  p.due_ns.reserve(p.req.capacity());
  std::size_t next_update = 0;
  double t_ns = 0.0;
  for (;;) {
    // Exponential gaps: independent users, not a metronome.
    t_ns += -std::log(1.0 - rng_.next_double()) * mean_gap_ns;
    if (t_ns >= window_ns) break;
    const auto due = static_cast<std::uint64_t>(t_ns);
    while (next_update < updates.size() && updates[next_update].first <= due) {
      p.due_ns.push_back(updates[next_update].first);
      p.req.push_back(updates[next_update].second);
      ++next_update;
    }
    p.due_ns.push_back(due);
    p.req.push_back(read(p.targets));
  }
  for (; next_update < updates.size(); ++next_update) {
    p.due_ns.push_back(updates[next_update].first);
    p.req.push_back(updates[next_update].second);
  }

  p.offset.reserve(p.req.size() + 1);
  for (std::size_t i = 0; i < p.req.size(); ++i) {
    p.offset.push_back(p.wire.size());
    encode_request(p.req[i], p.targets_of(p.req[i], spec_.fanout),
                   first_id + i, p.wire);
  }
  p.offset.push_back(p.wire.size());
  return p;
}

void encode_request(const Request& r, std::span<const NodeId> targets,
                    std::uint64_t request_id, std::vector<std::uint8_t>& out) {
  namespace net = vicinity::net;
  std::vector<std::uint8_t> payload;
  net::FrameWriter w(payload);
  net::FrameHeader h;
  h.request_id = request_id;
  switch (r.kind) {
    case Kind::kDistance:
    case Kind::kPath:
      h.op = r.kind == Kind::kPath ? net::Op::kPath : net::Op::kDistance;
      w.u32(r.s);
      w.u32(r.t);
      break;
    case Kind::kDistances:
      h.op = net::Op::kDistances;
      w.u32(r.s);
      w.u32(static_cast<std::uint32_t>(targets.size()));
      for (const NodeId t : targets) w.u32(t);
      break;
    case Kind::kInsert:
    case Kind::kDelete:
      h.op = net::Op::kApplyUpdate;
      w.u8(r.kind == Kind::kInsert ? 0 : 1);
      w.u8(0);
      w.u8(0);
      w.u8(0);
      w.u32(r.s);
      w.u32(r.t);
      w.u32(1);
      break;
  }
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  net::encode_frame(h, payload, out);
}

}  // namespace perfbench
