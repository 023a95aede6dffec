#include "core/directed_oracle.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "algo/path.h"
#include "core/query_engine.h"
#include "util/bit_vector.h"
#include "util/flat_hash.h"
#include "util/timer.h"

namespace vicinity::core {

// Defined where QueryContext is complete (core/query_engine.h).
DirectedVicinityOracle::DirectedVicinityOracle() = default;
DirectedVicinityOracle::DirectedVicinityOracle(
    DirectedVicinityOracle&&) noexcept = default;
DirectedVicinityOracle& DirectedVicinityOracle::operator=(
    DirectedVicinityOracle&&) noexcept = default;
DirectedVicinityOracle::~DirectedVicinityOracle() = default;

DirectedVicinityOracle DirectedVicinityOracle::build(
    const graph::Graph& g, const OracleOptions& options) {
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  return build_impl(g, options, all);
}

DirectedVicinityOracle DirectedVicinityOracle::build_for(
    const graph::Graph& g, const OracleOptions& options,
    std::span<const NodeId> query_nodes) {
  return build_impl(g, options, query_nodes);
}

DirectedVicinityOracle DirectedVicinityOracle::build_impl(
    const graph::Graph& g, const OracleOptions& options,
    std::span<const NodeId> nodes) {
  if (!g.directed()) {
    throw std::invalid_argument(
        "DirectedVicinityOracle: use VicinityOracle for undirected graphs");
  }
  util::Timer timer;
  DirectedVicinityOracle o;
  o.g_ = &g;
  o.opt_ = options;

  util::Rng rng(options.seed);
  o.landmarks_ = sample_landmarks(g, options.alpha, options.strategy, rng,
                                  options.sampling_constant);
  o.nearest_out_ = nearest_landmarks(g, o.landmarks_, Direction::kOut);
  o.nearest_in_ = nearest_landmarks(g, o.landmarks_, Direction::kIn);

  o.out_store_ = VicinityStore(g.num_nodes());
  o.in_store_ = VicinityStore(g.num_nodes());
  {
    util::BitVector seen(g.num_nodes());
    for (const NodeId u : nodes) {
      if (u >= g.num_nodes()) {
        throw std::out_of_range("DirectedVicinityOracle: node out of range");
      }
      if (!seen.get(u)) {
        seen.set(u);
        o.indexed_.push_back(u);
      }
    }
  }
  // The directed build is sequential; hold both stores' mutation roles
  // (exclusive satisfies the shared set() requirement) for the whole of
  // prepare + construction + pack.
  const util::RoleGuard out_role(o.out_store_.mutation_role());
  const util::RoleGuard in_role(o.in_store_.mutation_role());
  o.out_store_.prepare(o.indexed_);
  o.in_store_.prepare(o.indexed_);

  OracleBuildStats stats;
  VicinityBuilder out_builder(g, Direction::kOut);
  VicinityBuilder in_builder(g, Direction::kIn);
  for (const NodeId u : o.indexed_) {
    const Vicinity vo =
        out_builder.build(u, o.nearest_out_.dist[u], o.nearest_out_.landmark[u]);
    const Vicinity vi =
        in_builder.build(u, o.nearest_in_.dist[u], o.nearest_in_.landmark[u]);
    o.out_store_.set(u, vo);
    o.in_store_.set(u, vi);
    stats.mean_vicinity_size +=
        static_cast<double>(vo.members.size() + vi.members.size()) / 2.0;
    stats.max_vicinity_size =
        std::max({stats.max_vicinity_size,
                  static_cast<double>(vo.members.size()),
                  static_cast<double>(vi.members.size())});
    stats.mean_boundary_size +=
        static_cast<double>(vo.boundary_size + vi.boundary_size) / 2.0;
    stats.max_boundary_size =
        std::max({stats.max_boundary_size,
                  static_cast<double>(vo.boundary_size),
                  static_cast<double>(vi.boundary_size)});
    if (vo.radius != kInfDistance) {
      stats.mean_radius += static_cast<double>(vo.radius);
      stats.max_radius =
          std::max(stats.max_radius, static_cast<double>(vo.radius));
    }
    stats.construction_arcs_scanned += vo.arcs_scanned + vi.arcs_scanned;
  }
  // Stitch the per-slot staged slices into the arenas.
  o.out_store_.pack();
  o.in_store_.pack();

  if (options.store_landmark_tables) {
    const bool full_rows = o.indexed_.size() == g.num_nodes() ||
                           o.landmarks_.size() <= o.indexed_.size();
    if (full_rows) {
      o.tables_ = LandmarkTables::build_full(g, o.landmarks_,
                                             options.store_landmark_parents);
    } else {
      o.tables_ = LandmarkTables::build_subset(g, o.landmarks_, o.indexed_);
    }
  }

  const auto count =
      static_cast<double>(std::max<std::size_t>(1, o.indexed_.size()));
  stats.mean_vicinity_size /= count;
  stats.mean_boundary_size /= count;
  stats.mean_radius /= count;
  stats.indexed_nodes = o.indexed_.size();
  stats.num_landmarks = o.landmarks_.size();
  stats.seconds = timer.elapsed_seconds();
  o.build_stats_ = stats;
  return o;
}

void DirectedVicinityOracle::rebuild_vicinities(
    std::span<const NodeId> out_nodes, std::span<const NodeId> in_nodes) {
  const util::RoleGuard out_role(out_store_.mutation_role());
  const util::RoleGuard in_role(in_store_.mutation_role());
  if (!out_nodes.empty()) {
    VicinityBuilder builder(*g_, Direction::kOut);
    for (const NodeId u : out_nodes) {
      out_store_.set(
          u, builder.build(u, nearest_out_.dist[u], nearest_out_.landmark[u]));
    }
  }
  if (!in_nodes.empty()) {
    VicinityBuilder builder(*g_, Direction::kIn);
    for (const NodeId u : in_nodes) {
      in_store_.set(
          u, builder.build(u, nearest_in_.dist[u], nearest_in_.landmark[u]));
    }
  }
  // Occasional compaction of repair-staged slices.
  out_store_.pack_if_needed();
  in_store_.pack_if_needed();
}

UpdateStats DirectedVicinityOracle::apply_update(graph::Graph& g,
                                                 const GraphUpdate& update) {
  util::Timer timer;
  if (&g != g_) {
    throw std::invalid_argument(
        "DirectedVicinityOracle::apply_update: not the graph this oracle was "
        "built on");
  }
  if (indexed_.size() != g.num_nodes()) {
    throw std::logic_error(
        "DirectedVicinityOracle::apply_update: requires a full index");
  }
  const NodeId a = update.u;
  const NodeId b = update.v;
  if (a >= g.num_nodes() || b >= g.num_nodes()) {
    throw std::out_of_range(
        "DirectedVicinityOracle::apply_update: node out of range");
  }
  UpdateStats stats;
  stats.kind = update.kind;
  Weight w = update.weight;
  if (update.kind == UpdateKind::kDelete) {
    w = g.edge_weight(a, b);
    if (w == kInfDistance) {
      throw std::invalid_argument(
          "DirectedVicinityOracle::apply_update: arc not present");
    }
  } else if (g.has_edge(a, b)) {
    throw std::invalid_argument(
        "DirectedVicinityOracle::apply_update: arc already present");
  }

  // (1) Candidate regions + classification on the PRE-mutation graph:
  // Γ_out(x) ∋ endpoint is a backward question (searched along in-arcs,
  // pruned by r_out), Γ_in(x) a forward one.
  const Distance slack = g.weighted() ? g.max_weight() : 0;
  util::FlatHashMap<NodeId, Distance> out_from_a(512);
  util::FlatHashMap<NodeId, Distance> out_from_b(512);
  util::FlatHashMap<NodeId, Distance> in_from_a(512);
  util::FlatHashMap<NodeId, Distance> in_from_b(512);
  detail::collect_candidates(g, nearest_out_.dist, a, Direction::kOut, slack,
                             out_from_a, stats.candidates_scanned);
  detail::collect_candidates(g, nearest_out_.dist, b, Direction::kOut, slack,
                             out_from_b, stats.candidates_scanned);
  detail::collect_candidates(g, nearest_in_.dist, a, Direction::kIn, slack,
                             in_from_a, stats.candidates_scanned);
  detail::collect_candidates(g, nearest_in_.dist, b, Direction::kIn, slack,
                             in_from_b, stats.candidates_scanned);
  detail::AffectedSets sets_out = detail::decide_affected(
      g, out_store_, nearest_out_.dist, update.kind, Direction::kOut, a, b, w,
      out_from_a, out_from_b);
  detail::AffectedSets sets_in = detail::decide_affected(
      g, in_store_, nearest_in_.dist, update.kind, Direction::kIn, a, b, w,
      in_from_a, in_from_b);

  // (2) Mutate, then (3) repair both radius fields.
  std::vector<NodeId> changed_out;
  std::vector<NodeId> changed_in;
  std::vector<NodeId> assign_out;
  std::vector<NodeId> assign_in;
  if (update.kind == UpdateKind::kInsert) {
    g.add_edge(a, b, w);
    changed_out = detail::repair_nearest_insert(g, nearest_out_, a, b, w,
                                                Direction::kOut);
    changed_in = detail::repair_nearest_insert(g, nearest_in_, a, b, w,
                                               Direction::kIn);
  } else {
    g.remove_edge(a, b);
    changed_out = detail::repair_nearest_delete(
        g, landmarks_, nearest_out_, a, b, w, Direction::kOut, &assign_out);
    changed_in = detail::repair_nearest_delete(
        g, landmarks_, nearest_in_, a, b, w, Direction::kIn, &assign_in);
  }
  stats.radius_changes = changed_out.size() + changed_in.size();
  util::FlatHashSet<NodeId> rebuild_out(sets_out.rebuild.size() +
                                        changed_out.size() + 1);
  util::FlatHashSet<NodeId> rebuild_in(sets_in.rebuild.size() +
                                       changed_in.size() + 1);
  detail::merge_radius_changes(sets_out, changed_out, rebuild_out);
  detail::merge_radius_changes(sets_in, changed_in, rebuild_in);

  // (4) Repair or rebuild (two vicinities per node -> 2n budget), then the
  // boundary-flag and metadata patches for everything not rebuilt.
  const auto threshold = static_cast<std::size_t>(
      opt_.update_rebuild_fraction * 2.0 *
      static_cast<double>(indexed_.size()));
  if (sets_out.rebuild.size() + sets_in.rebuild.size() > threshold) {
    stats.full_rebuild = true;
    stats.affected_vicinities = 2 * indexed_.size();
    rebuild_vicinities(indexed_, indexed_);
  } else {
    stats.affected_vicinities =
        sets_out.rebuild.size() + sets_in.rebuild.size();
    rebuild_vicinities(sets_out.rebuild, sets_in.rebuild);
    const util::SharedRoleGuard out_role(out_store_.mutation_role());
    const util::SharedRoleGuard in_role(in_store_.mutation_role());
    for (const auto& [x, member] : sets_out.flag_patches) {
      if (rebuild_out.contains(x)) continue;
      out_store_.refresh_boundary_flag(x, member, g, Direction::kOut);
      ++stats.boundary_patches;
    }
    for (const auto& [x, member] : sets_in.flag_patches) {
      if (rebuild_in.contains(x)) continue;
      in_store_.refresh_boundary_flag(x, member, g, Direction::kIn);
      ++stats.boundary_patches;
    }
    for (const NodeId x : assign_out) {
      if (!rebuild_out.contains(x) && out_store_.has(x)) {
        out_store_.set_nearest_landmark(x, nearest_out_.landmark[x]);
      }
    }
    for (const NodeId x : assign_in) {
      if (!rebuild_in.contains(x) && in_store_.has(x)) {
        in_store_.set_nearest_landmark(x, nearest_in_.landmark[x]);
      }
    }
  }

  // (5) Landmark rows (forward + backward).
  if (tables_.mode() == LandmarkTables::Mode::kFull) {
    stats.landmark_rows_refreshed =
        update.kind == UpdateKind::kInsert
            ? tables_.refresh_rows_insert(g, a, b, w)
            : tables_.refresh_rows_delete(g, a, b);
  }

  stats.seconds = timer.elapsed_seconds();
  return stats;
}

QueryResult DirectedVicinityOracle::distance(NodeId s, NodeId t) {
  // The default context is shared state; the lock makes the convenience
  // overload safe (but serialized) under concurrent callers.
  DefaultContextSlot& slot = *default_slot_;
  const util::MutexLock lock(slot.mu);
  if (!slot.ctx) slot.ctx = std::make_unique<QueryContext>();
  return distance(s, t, *slot.ctx);
}

QueryResult DirectedVicinityOracle::distance(NodeId s, NodeId t,
                                             QueryContext& ctx) const {
  const QueryResult r = distance_impl(s, t, &ctx);
  ctx.stats().record(r);
  return r;
}

QueryResult DirectedVicinityOracle::distance_impl(NodeId s, NodeId t,
                                                  QueryContext* ctx) const {
  if (s >= g_->num_nodes() || t >= g_->num_nodes()) {
    throw std::out_of_range("DirectedVicinityOracle::distance: bad node");
  }
  QueryResult r;
  if (s == t) {
    r.dist = 0;
    r.method = QueryMethod::kIdenticalNodes;
    r.exact = true;
    return r;
  }
  if (tables_.mode() != LandmarkTables::Mode::kNone) {
    const bool s_lm = landmarks_.contains(s);
    const bool t_lm = landmarks_.contains(t);
    const bool subset = tables_.mode() == LandmarkTables::Mode::kSubset;
    if (s_lm && (!subset || tables_.in_subset(t))) {
      r.dist = tables_.landmark_query(s, t, /*s_is_landmark=*/true);
      r.method = QueryMethod::kSourceIsLandmark;
      r.exact = true;
      return r;
    }
    if (t_lm && (!subset || tables_.in_subset(s))) {
      r.dist = tables_.landmark_query(s, t, /*s_is_landmark=*/false);
      r.method = QueryMethod::kTargetIsLandmark;
      r.exact = true;
      return r;
    }
  }

  std::uint32_t lookups = 0;
  const bool have_s = out_store_.has(s);
  const bool have_t = in_store_.has(t);
  if (have_s) {
    const ProbeResult e = out_store_.find(s, t);
    ++lookups;
    if (e.found) {
      return QueryResult{e.dist, QueryMethod::kTargetInSourceVicinity,
                         lookups, true};
    }
  }
  if (have_t) {
    const ProbeResult e = in_store_.find(t, s);
    ++lookups;
    if (e.found) {
      return QueryResult{e.dist, QueryMethod::kSourceInTargetVicinity,
                         lookups, true};
    }
  }
  if (have_s && have_t) {
    // Intersection of Γ_out(s) with Γ_in(t); the iteration side minimizes
    // the estimated kernel cost (boundary size × probe cost — see
    // VicinityOracle::intersect), not the boundary size alone.
    // Weighted soundness guard as in VicinityOracle::intersect().
    const Distance accept_limit =
        dist_add(out_store_.radius(s), in_store_.radius(t));
    const bool iterate_out =
        !opt_.iterate_smaller_side ||
        in_store_.intersect_cost(out_store_.boundary_size(s), t) <=
            out_store_.intersect_cost(in_store_.boundary_size(t), s);
    Distance best = kInfDistance;
    if (opt_.use_boundary_optimization) {
      const auto view =
          iterate_out ? out_store_.boundary(s) : in_store_.boundary(t);
      const VicinityStore& other = iterate_out ? in_store_ : out_store_;
      const NodeId other_node = iterate_out ? t : s;
      best = other.intersect_min(view, other_node, lookups);
    } else {
      // Full-iteration ablation: per-member probes, so the side choice
      // uses the probe-scan model over the full vicinity sizes.
      const bool scan_out =
          !opt_.iterate_smaller_side ||
          in_store_.scan_probe_cost(out_store_.vicinity_size(s), t) <=
              out_store_.scan_probe_cost(in_store_.vicinity_size(t), s);
      const VicinityStore& mine = scan_out ? out_store_ : in_store_;
      const VicinityStore& other = scan_out ? in_store_ : out_store_;
      const NodeId my_node = scan_out ? s : t;
      const NodeId other_node = scan_out ? t : s;
      mine.for_each_member(my_node, [&](NodeId w, const StoredEntry& we) {
        const ProbeResult e = other.find(other_node, w);
        ++lookups;
        if (e.found) best = std::min(best, dist_add(we.dist, e.dist));
      });
    }
    if (best != kInfDistance && best <= accept_limit) {
      return QueryResult{best, QueryMethod::kVicinityIntersection, lookups,
                         true};
    }
  }
  return fallback_distance(s, t, lookups, ctx);
}

QueryResult DirectedVicinityOracle::fallback_distance(NodeId s, NodeId t,
                                                      std::uint32_t lookups,
                                                      QueryContext* ctx) const {
  QueryResult r;
  r.hash_lookups = lookups;
  if (opt_.fallback == Fallback::kBidirectionalBfs) {
    if (ctx == nullptr) {
      r.method = QueryMethod::kNotFound;
      return r;
    }
    r.dist = algo::bidirectional_bfs_distance(*g_, ctx->scratch_, s, t).dist;
    r.method = QueryMethod::kFallbackExact;
    r.exact = true;
    return r;
  }
  if (opt_.fallback == Fallback::kLandmarkEstimate &&
      tables_.mode() != LandmarkTables::Mode::kNone) {
    // d(s,t) <= d(s, ℓ_out(s)) + d(ℓ_out(s), t).
    const NodeId ls = nearest_out_.landmark[s];
    const bool subset = tables_.mode() == LandmarkTables::Mode::kSubset;
    if (ls != kInvalidNode && (!subset || tables_.in_subset(t))) {
      const Distance est = dist_add(nearest_out_.dist[s],
                                    tables_.landmark_query(ls, t, true));
      if (est != kInfDistance) {
        r.dist = est;
        r.method = QueryMethod::kFallbackEstimate;
        r.exact = false;
        return r;
      }
    }
  }
  r.method = QueryMethod::kNotFound;
  return r;
}

bool DirectedVicinityOracle::chase_out(NodeId origin, NodeId from,
                                       std::vector<NodeId>& out) const {
  NodeId cur = from;
  out.push_back(cur);
  // Bounded against untrusted arena data from a structural-only mmap open.
  const std::uint64_t limit = g_->num_nodes();
  std::uint64_t steps = 0;
  while (cur != origin) {
    const ProbeResult e = out_store_.find(origin, cur);
    if (!e.found || e.parent == kInvalidNode || e.parent == cur ||
        e.parent >= limit || ++steps > limit) {
      return false;
    }
    cur = e.parent;
    out.push_back(cur);
  }
  return true;
}

bool DirectedVicinityOracle::chase_in(NodeId origin, NodeId from,
                                      std::vector<NodeId>& out) const {
  // Γ_in parents are successors toward the origin, so the walk emits the
  // forward path from..origin in order.
  NodeId cur = from;
  out.push_back(cur);
  const std::uint64_t limit = g_->num_nodes();
  std::uint64_t steps = 0;
  while (cur != origin) {
    const ProbeResult e = in_store_.find(origin, cur);
    if (!e.found || e.parent == kInvalidNode || e.parent == cur ||
        e.parent >= limit || ++steps > limit) {
      return false;
    }
    cur = e.parent;
    out.push_back(cur);
  }
  return true;
}

PathResult DirectedVicinityOracle::path(NodeId s, NodeId t) {
  DefaultContextSlot& slot = *default_slot_;
  const util::MutexLock lock(slot.mu);
  if (!slot.ctx) slot.ctx = std::make_unique<QueryContext>();
  return path(s, t, *slot.ctx);
}

PathResult DirectedVicinityOracle::path(NodeId s, NodeId t,
                                        QueryContext& ctx) const {
  if (s >= g_->num_nodes() || t >= g_->num_nodes()) {
    throw std::out_of_range("DirectedVicinityOracle::path: bad node");
  }
  PathResult p;
  if (s == t) {
    p.dist = 0;
    p.path = {s};
    p.method = QueryMethod::kIdenticalNodes;
    p.exact = true;
    return p;
  }
  // Landmark source with full parent trees: walk the forward SPT.
  if (tables_.mode() == LandmarkTables::Mode::kFull && tables_.has_parents() &&
      landmarks_.contains(s)) {
    const Distance d = tables_.dist_from_landmark(s, t);
    if (d == kInfDistance) {
      p.exact = true;
      p.method = QueryMethod::kSourceIsLandmark;
      return p;
    }
    std::vector<NodeId> walk;
    NodeId cur = t;
    // Parent rows from a default mmap open are untrusted; bound the walk.
    const std::uint64_t limit = g_->num_nodes();
    std::uint64_t steps = 0;
    while (cur != s) {
      if (cur >= limit || ++steps > limit) {
        throw std::runtime_error(
            "oracle index: corrupt landmark parent chain");
      }
      walk.push_back(cur);
      cur = tables_.parent_from_landmark(s, cur);
    }
    walk.push_back(s);
    std::reverse(walk.begin(), walk.end());
    return PathResult{d, std::move(walk), QueryMethod::kSourceIsLandmark,
                      true};
  }

  if (out_store_.has(s)) {
    if (const ProbeResult e = out_store_.find(s, t)) {
      std::vector<NodeId> rev;
      if (chase_out(s, t, rev)) {
        std::reverse(rev.begin(), rev.end());
        return PathResult{e.dist, std::move(rev),
                          QueryMethod::kTargetInSourceVicinity, true};
      }
    }
  }
  if (in_store_.has(t)) {
    if (const ProbeResult e = in_store_.find(t, s)) {
      std::vector<NodeId> walk;
      if (chase_in(t, s, walk)) {
        return PathResult{e.dist, std::move(walk),
                          QueryMethod::kSourceInTargetVicinity, true};
      }
    }
  }
  if (out_store_.has(s) && in_store_.has(t)) {
    const auto view = out_store_.boundary(s);
    const Distance accept_limit =
        dist_add(out_store_.radius(s), in_store_.radius(t));
    Distance best = kInfDistance;
    NodeId witness = kInvalidNode;
    for (std::size_t i = 0; i < view.nodes.size(); ++i) {
      const ProbeResult e = in_store_.find(t, view.nodes[i]);
      if (e.found) {
        const Distance total = dist_add(view.dists[i], e.dist);
        if (total < best) {
          best = total;
          witness = view.nodes[i];
        }
      }
    }
    if (best > accept_limit) witness = kInvalidNode;  // weighted guard
    if (witness != kInvalidNode) {
      std::vector<NodeId> left, right;
      if (chase_out(s, witness, left) && chase_in(t, witness, right)) {
        std::reverse(left.begin(), left.end());
        left.insert(left.end(), right.begin() + 1, right.end());
        return PathResult{best, std::move(left),
                          QueryMethod::kVicinityIntersection, true};
      }
    }
  }
  // Exact fallback for anything unresolved.
  if (opt_.fallback != Fallback::kNone) {
    p.path = algo::bidirectional_bfs_path(*g_, ctx.scratch_, s, t);
    if (!p.path.empty()) {
      p.dist = g_->weighted()
                   ? algo::path_length(*g_, p.path)
                   : static_cast<Distance>(p.path.size() - 1);
    }
    p.method = QueryMethod::kFallbackExact;
    p.exact = true;
  }
  return p;
}

double DirectedVicinityOracle::estimate_coverage(std::size_t pairs,
                                                 util::Rng& rng) const {
  if (indexed_.size() < 2 || pairs == 0) return 0.0;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId s = indexed_[rng.next_below(indexed_.size())];
    NodeId t = s;
    while (t == s) t = indexed_[rng.next_below(indexed_.size())];
    // Null context: the exact fallback reports not-found instead of
    // searching; landmark estimates are excluded explicitly (footnote 1).
    const QueryResult r = distance_impl(s, t, nullptr);
    if (r.method != QueryMethod::kNotFound &&
        r.method != QueryMethod::kFallbackEstimate) {
      ++answered;
    }
  }
  return static_cast<double>(answered) / static_cast<double>(pairs);
}

OracleMemoryStats DirectedVicinityOracle::memory_stats() const {
  OracleMemoryStats m;
  m.vicinity_entries = out_store_.total_entries() + in_store_.total_entries();
  m.boundary_entries =
      out_store_.total_boundary_entries() + in_store_.total_boundary_entries();
  m.landmark_entries = tables_.entries();
  m.bytes = out_store_.memory_bytes() + in_store_.memory_bytes() +
            tables_.memory_bytes();
  const auto n = static_cast<std::uint64_t>(g_->num_nodes());
  m.apsp_entries = n * (n - 1);  // ordered pairs for directed graphs
  return m;
}

}  // namespace vicinity::core
