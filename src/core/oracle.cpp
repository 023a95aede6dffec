#include "core/oracle.h"

#include <algorithm>
#include <stdexcept>

#include "algo/bidirectional_dijkstra.h"
#include "algo/path.h"
#include "core/query_engine.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace vicinity::core {

VicinityOracle::VicinityOracle() = default;
VicinityOracle::VicinityOracle(VicinityOracle&&) noexcept = default;
VicinityOracle& VicinityOracle::operator=(VicinityOracle&&) noexcept = default;
VicinityOracle::~VicinityOracle() = default;

const char* to_string(QueryMethod m) {
  switch (m) {
    case QueryMethod::kIdenticalNodes: return "identical";
    case QueryMethod::kSourceIsLandmark: return "source-landmark";
    case QueryMethod::kTargetIsLandmark: return "target-landmark";
    case QueryMethod::kTargetInSourceVicinity: return "target-in-Γ(s)";
    case QueryMethod::kSourceInTargetVicinity: return "source-in-Γ(t)";
    case QueryMethod::kVicinityIntersection: return "vicinity-intersection";
    case QueryMethod::kFallbackExact: return "fallback-exact";
    case QueryMethod::kFallbackEstimate: return "fallback-estimate";
    case QueryMethod::kBaselineExact: return "baseline-exact";
    case QueryMethod::kBaselineEstimate: return "baseline-estimate";
    case QueryMethod::kNotFound: return "not-found";
    case QueryMethod::kLandmarkCertificate: return "landmark-certificate";
    case QueryMethod::kCrossingEdge: return "crossing-edge";
  }
  return "?";
}

VicinityOracle VicinityOracle::build(const graph::Graph& g,
                                     const OracleOptions& options) {
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  return build_impl(g, options, all, /*full_index=*/true);
}

VicinityOracle VicinityOracle::build_for(const graph::Graph& g,
                                         const OracleOptions& options,
                                         std::span<const NodeId> query_nodes) {
  return build_impl(g, options, query_nodes, /*full_index=*/false);
}

VicinityOracle VicinityOracle::build_impl(const graph::Graph& g,
                                          const OracleOptions& options,
                                          std::span<const NodeId> query_nodes,
                                          bool full_index) {
  if (g.num_nodes() == 0) {
    throw std::invalid_argument("VicinityOracle: empty graph");
  }
  util::Timer timer;
  VicinityOracle o;
  o.g_ = &g;
  o.opt_ = options;

  util::Rng rng(options.seed);
  o.landmarks_ = sample_landmarks(g, options.alpha, options.strategy, rng,
                                  options.sampling_constant);

  // Deduplicate the index set, preserving order.
  o.indexed_.clear();
  {
    util::BitVector seen(g.num_nodes());
    for (const NodeId u : query_nodes) {
      if (u >= g.num_nodes()) {
        throw std::out_of_range("VicinityOracle: query node out of range");
      }
      if (!seen.get(u)) {
        seen.set(u);
        o.indexed_.push_back(u);
      }
    }
  }
  const std::size_t families = o.families();
  for (std::size_t f = 0; f < families; ++f) {
    o.nearest_[f] = nearest_landmarks(g, o.landmarks_, direction(f));
    VicinityStore& store = o.stores_[f];
    store = VicinityStore(g.num_nodes());
    const util::RoleGuard role(store.mutation_role());
    store.prepare(o.indexed_);
  }

  // Vicinity construction: embarrassingly parallel over indexed nodes.
  // Size statistics average over the families; radii are the out side's.
  const unsigned threads =
      options.build_threads == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : options.build_threads;
  const double share = 1.0 / static_cast<double>(families);
  util::Mutex stats_mu;
  OracleBuildStats stats;
  auto build_range = [&](std::size_t lo, std::size_t hi) {
    OracleBuildStats local;
    for (std::size_t f = 0; f < families; ++f) {
      // Each worker writes disjoint pre-sized slots: a shared hold on the
      // store's mutation role (set() is REQUIRES_SHARED).
      VicinityStore& store = o.stores_[f];
      const util::SharedRoleGuard role(store.mutation_role());
      const NearestLandmarkInfo& nearest = o.nearest_[f];
      VicinityBuilder builder(g, direction(f));
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId u = o.indexed_[i];
        const Vicinity v =
            builder.build(u, nearest.dist[u], nearest.landmark[u]);
        store.set(u, v);
        const auto sz = static_cast<double>(v.members.size());
        const auto bz = static_cast<double>(v.boundary_size);
        local.mean_vicinity_size += share * sz;
        local.max_vicinity_size = std::max(local.max_vicinity_size, sz);
        local.mean_boundary_size += share * bz;
        local.max_boundary_size = std::max(local.max_boundary_size, bz);
        if (f == 0 && v.radius != kInfDistance) {
          local.mean_radius += static_cast<double>(v.radius);
          local.max_radius =
              std::max(local.max_radius, static_cast<double>(v.radius));
        }
        local.construction_arcs_scanned += v.arcs_scanned;
      }
    }
    const util::MutexLock lock(stats_mu);
    stats.mean_vicinity_size += local.mean_vicinity_size;
    stats.max_vicinity_size =
        std::max(stats.max_vicinity_size, local.max_vicinity_size);
    stats.mean_boundary_size += local.mean_boundary_size;
    stats.max_boundary_size =
        std::max(stats.max_boundary_size, local.max_boundary_size);
    stats.mean_radius += local.mean_radius;
    stats.max_radius = std::max(stats.max_radius, local.max_radius);
    stats.construction_arcs_scanned += local.construction_arcs_scanned;
  };
  if (threads > 1 && o.indexed_.size() > 64) {
    util::ThreadPool pool(threads);
    pool.parallel_for_ranges(
        o.indexed_.size(), threads,
        [&](std::uint64_t lo, std::uint64_t hi, unsigned) {
          build_range(lo, hi);
        });
  } else {
    build_range(0, o.indexed_.size());
  }
  // The parallel loop parked every slice in its slot-local sub-arena;
  // stitch them into one contiguous arena per family now.
  for (std::size_t f = 0; f < families; ++f) {
    VicinityStore& store = o.stores_[f];
    const util::RoleGuard role(store.mutation_role());
    store.pack();
  }

  // Landmark tables (forward and, on directed graphs, backward rows).
  // Full-index oracles need full rows; subset oracles pick the cheaper
  // side: |L| searches (full rows) vs |subset| searches (subset matrix).
  if (options.store_landmark_tables) {
    const bool full_rows =
        full_index || o.landmarks_.size() <= o.indexed_.size();
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    o.tables_ = full_rows ? LandmarkTables::build_full(g, o.landmarks_,
                                                       pool.get())
                          : LandmarkTables::build_subset(
                                g, o.landmarks_, o.indexed_, pool.get());
  }

  const auto count = static_cast<double>(std::max<std::size_t>(1, o.indexed_.size()));
  stats.mean_vicinity_size /= count;
  stats.mean_boundary_size /= count;
  stats.mean_radius /= count;
  stats.indexed_nodes = o.indexed_.size();
  stats.num_landmarks = o.landmarks_.size();
  stats.seconds = timer.elapsed_seconds();
  o.build_stats_ = stats;
  return o;
}

void VicinityOracle::rebuild_vicinities(std::size_t f,
                                        std::span<const NodeId> nodes) {
  if (nodes.empty()) return;
  VicinityStore& store = stores_[f];
  const NearestLandmarkInfo& nearest = nearest_[f];
  auto rebuild_range = [&](std::uint64_t lo, std::uint64_t hi) {
    const util::SharedRoleGuard role(store.mutation_role());
    VicinityBuilder builder(*g_, direction(f));
    for (std::uint64_t i = lo; i < hi; ++i) {
      const NodeId u = nodes[i];
      store.set(u, builder.build(u, nearest.dist[u], nearest.landmark[u]));
    }
  };
  const unsigned threads =
      opt_.build_threads == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : opt_.build_threads;
  // Tiny repairs would pay more for dispatch than the rebuilds cost;
  // anything hub-sized (hundreds of vicinities) parallelizes well. The
  // pool persists across updates — spawning threads per apply_update would
  // put ~ms of thread churn on the measured update path.
  if (threads > 1 && nodes.size() > 128) {
    if (!update_pool_ || update_pool_->thread_count() != threads) {
      update_pool_ = std::make_unique<util::ThreadPool>(threads);
    }
    update_pool_->parallel_for_ranges(
        nodes.size(), threads,
        [&](std::uint64_t lo, std::uint64_t hi, unsigned) {
          rebuild_range(lo, hi);
        });
  } else {
    rebuild_range(0, nodes.size());
  }
  // Occasional compaction: repairs that outgrew their arena region were
  // staged; fold them back once they amount to a quarter of the index.
  const util::RoleGuard role(store.mutation_role());
  store.pack_if_needed();
}

UpdateStats VicinityOracle::apply_update(graph::Graph& g,
                                         const GraphUpdate& update) {
  util::Timer timer;
  if (&g != g_) {
    throw std::invalid_argument(
        "VicinityOracle::apply_update: not the graph this oracle was built "
        "on");
  }
  if (indexed_.size() != g.num_nodes()) {
    throw std::logic_error(
        "VicinityOracle::apply_update: requires a full index (build(), not "
        "build_for())");
  }
  const NodeId a = update.u;
  const NodeId b = update.v;
  if (a >= g.num_nodes() || b >= g.num_nodes()) {
    throw std::out_of_range("VicinityOracle::apply_update: node out of range");
  }
  UpdateStats stats;
  stats.kind = update.kind;
  Weight w = update.weight;
  if (update.kind == UpdateKind::kDelete) {
    w = g.edge_weight(a, b);
    if (w == kInfDistance) {
      throw std::invalid_argument(
          "VicinityOracle::apply_update: edge not present");
    }
  } else if (g.has_edge(a, b)) {
    throw std::invalid_argument(
        "VicinityOracle::apply_update: edge already present");
  }

  // (1) Candidate regions + classification on the PRE-mutation graph (see
  // core/dynamic.h), per family: vicinities the edge is local to get
  // rebuilt, member endpoints whose other end stays outside only need a
  // flag refresh. Γ_out(x) ∋ endpoint is a backward question (searched
  // along in-arcs, pruned by r_out), Γ_in(x) a forward one.
  const std::size_t families = this->families();
  const Distance slack = g.weighted() ? g.max_weight() : 0;
  std::array<detail::AffectedSets, 2> sets;
  for (std::size_t f = 0; f < families; ++f) {
    util::FlatHashMap<NodeId, Distance> from_a(1024);
    util::FlatHashMap<NodeId, Distance> from_b(1024);
    detail::collect_candidates(g, nearest_[f].dist, a, direction(f), slack,
                               from_a, stats.candidates_scanned);
    detail::collect_candidates(g, nearest_[f].dist, b, direction(f), slack,
                               from_b, stats.candidates_scanned);
    sets[f] = detail::decide_affected(g, stores_[f], nearest_[f].dist,
                                      update.kind, direction(f), a, b, w,
                                      from_a, from_b);
  }

  // (2) Mutate the graph, then (3) repair each radius field against it. A
  // changed radius re-truncates the vicinity regardless of locality.
  if (update.kind == UpdateKind::kInsert) {
    g.add_edge(a, b, w);
  } else {
    g.remove_edge(a, b);
  }
  std::array<std::vector<NodeId>, 2> assignment_changed;
  std::array<util::FlatHashSet<NodeId>, 2> rebuild_sets;
  std::size_t rebuild_count = 0;
  for (std::size_t f = 0; f < families; ++f) {
    const std::vector<NodeId> radius_changed =
        update.kind == UpdateKind::kInsert
            ? detail::repair_nearest_insert(g, nearest_[f], a, b, w,
                                            direction(f))
            : detail::repair_nearest_delete(g, landmarks_, nearest_[f], a, b,
                                            w, direction(f),
                                            &assignment_changed[f]);
    stats.radius_changes += radius_changed.size();
    rebuild_sets[f] = util::FlatHashSet<NodeId>(sets[f].rebuild.size() +
                                                radius_changed.size() + 1);
    detail::merge_radius_changes(sets[f], radius_changed, rebuild_sets[f]);
    rebuild_count += sets[f].rebuild.size();
  }

  // (4) Repair or rebuild the vicinities (the budget counts every family's
  // vicinities), then apply the flag and metadata patches to everything
  // that was not rebuilt outright.
  const auto threshold = static_cast<std::size_t>(
      opt_.update_rebuild_fraction *
      static_cast<double>(families * indexed_.size()));
  if (rebuild_count > threshold) {
    stats.full_rebuild = true;
    stats.affected_vicinities = families * indexed_.size();
    for (std::size_t f = 0; f < families; ++f) {
      rebuild_vicinities(f, indexed_);
    }
  } else {
    stats.affected_vicinities = rebuild_count;
    for (std::size_t f = 0; f < families; ++f) {
      rebuild_vicinities(f, sets[f].rebuild);
      VicinityStore& store = stores_[f];
      const util::SharedRoleGuard role(store.mutation_role());
      for (const auto& [x, member] : sets[f].flag_patches) {
        if (rebuild_sets[f].contains(x)) continue;
        store.refresh_boundary_flag(x, member, g, direction(f));
        ++stats.boundary_patches;
      }
      // Tie re-breaks (same radius, different landmark): the vicinity is
      // unchanged but its stored metadata — which serialization persists —
      // must track the repaired field.
      for (const NodeId x : assignment_changed[f]) {
        if (!rebuild_sets[f].contains(x) && store.has(x)) {
          store.set_nearest_landmark(x, nearest_[f].landmark[x]);
        }
      }
    }
  }

  // (5) Landmark rows (forward and, on directed graphs, backward).
  if (tables_.mode() == LandmarkTables::Mode::kFull) {
    stats.landmark_rows_refreshed =
        update.kind == UpdateKind::kInsert
            ? tables_.refresh_rows_insert(g, a, b, w)
            : tables_.refresh_rows_delete(g, a, b);
  }

  stats.seconds = timer.elapsed_seconds();
  return stats;
}

bool VicinityOracle::try_landmark_query(NodeId s, NodeId t,
                                        QueryResult& out) const {
  if (tables_.mode() == LandmarkTables::Mode::kNone) return false;
  // Subset tables can only resolve pairs whose non-landmark endpoint is a
  // subset node.
  const bool subset = tables_.mode() == LandmarkTables::Mode::kSubset;
  if (landmarks_.contains(s) && (!subset || tables_.in_subset(t))) {
    out.dist = tables_.landmark_query(s, t, /*s_is_landmark=*/true);
    out.method = QueryMethod::kSourceIsLandmark;
  } else if (landmarks_.contains(t) && (!subset || tables_.in_subset(s))) {
    out.dist = tables_.landmark_query(s, t, /*s_is_landmark=*/false);
    out.method = QueryMethod::kTargetIsLandmark;
  } else {
    return false;
  }
  out.exact = true;
  return true;
}

QueryResult VicinityOracle::intersect(NodeId s, NodeId t) const {
  QueryResult r;
  r.method = QueryMethod::kVicinityIntersection;
  const VicinityStore& out = stores_[0];
  const VicinityStore& in = store(Direction::kIn);
  // Weighted-graph soundness guard (no-op on unweighted graphs, where every
  // stored distance is <= the radius): shell members of Γ can lie beyond
  // the radius, and an off-path pair of far shell members can intersect
  // without witnessing d(s,t). A minimum of at most radius(s) + radius(t)
  // is provably exact: if d(s,t) <= r_s + r_t, the last shortest-path node
  // inside Γ_out(s) is a boundary member that also lies in Γ_in(t) and
  // attains d(s,t); any accepted value can therefore not overshoot.
  const Distance accept_limit = dist_add(out.radius(s), in.radius(t));
  // Pick the iteration side (Lemma 1 holds symmetrically, so the answer is
  // side-invariant) by estimated kernel cost: the iterated boundary size
  // against the probe slice, min(merge, gallop). Comparing boundary sizes
  // alone while the probe pays log2(len(probe)) picked the wrong side on
  // skewed pairs.
  Distance best = kInfDistance;
  if (opt_.use_boundary_optimization) {
    const bool iterate_t =
        opt_.iterate_smaller_side &&
        out.intersect_cost(in.boundary_size(t), s) <
            in.intersect_cost(out.boundary_size(s), t);
    best = iterate_t ? out.intersect_min(in.boundary(t), s, r.hash_lookups)
                     : in.intersect_min(out.boundary(s), t, r.hash_lookups);
  } else {
    // Ablation path: iterate the full vicinity of the chosen side — one
    // membership probe per member, so the cost model has no merge term.
    const bool scan_t = opt_.iterate_smaller_side &&
                        out.scan_probe_cost(in.vicinity_size(t), s) <
                            in.scan_probe_cost(out.vicinity_size(s), t);
    const VicinityStore& mine = scan_t ? in : out;
    const VicinityStore& other = scan_t ? out : in;
    const NodeId probe = scan_t ? s : t;
    std::uint32_t lookups = 0;
    mine.for_each_member(scan_t ? t : s, [&](NodeId w, const StoredEntry& we) {
      const ProbeResult e = other.find(probe, w);
      ++lookups;
      if (e.found) best = std::min(best, dist_add(we.dist, e.dist));
    });
    r.hash_lookups = lookups;
  }
  r.dist = best > accept_limit ? kInfDistance : best;
  r.exact = r.dist != kInfDistance;  // Theorem 1 (+ weighted guard above)
  return r;
}

QueryResult VicinityOracle::distance(NodeId s, NodeId t,
                                     QueryContext& ctx) const {
  const QueryResult r = distance_impl(s, t, &ctx);
  ctx.stats().record(r);
  return r;
}

QueryResult VicinityOracle::distance_impl(NodeId s, NodeId t,
                                          QueryContext* ctx) const {
  if (s >= g_->num_nodes() || t >= g_->num_nodes()) {
    throw std::out_of_range("VicinityOracle::distance: node out of range");
  }
  QueryResult r;
  if (s == t) {
    r.dist = 0;
    r.method = QueryMethod::kIdenticalNodes;
    r.exact = true;
    return r;
  }
  if (try_landmark_query(s, t, r)) return r;

  const VicinityStore& out = stores_[0];
  const VicinityStore& in = store(Direction::kIn);
  std::uint32_t lookups = 0;
  const bool have_s = out.has(s);
  const bool have_t = in.has(t);
  if (have_s) {
    const ProbeResult e = out.find(s, t);
    ++lookups;
    if (e.found) {
      return QueryResult{e.dist, QueryMethod::kTargetInSourceVicinity,
                         lookups, true};
    }
  }
  if (have_t) {
    const ProbeResult e = in.find(t, s);
    ++lookups;
    if (e.found) {
      return QueryResult{e.dist, QueryMethod::kSourceInTargetVicinity,
                         lookups, true};
    }
  }
  if (have_s && have_t) {
    QueryResult ir = intersect(s, t);
    ir.hash_lookups += lookups;
    if (ir.dist != kInfDistance) return ir;
    const QueryResult dr = resolve_disjoint(s, t, ir.hash_lookups);
    if (dr.exact) return dr;
    lookups = dr.hash_lookups;
  }
  return fallback_distance_impl(s, t, lookups, ctx);
}

Distance VicinityOracle::landmark_bound(Direction via, NodeId s,
                                        NodeId t) const {
  if (tables_.mode() == LandmarkTables::Mode::kNone) return kInfDistance;
  const bool out = via == Direction::kOut;
  const NodeId u = out ? s : t;  // the endpoint whose landmark is used
  const NearestLandmarkInfo& nearest = nearest_[side(via)];
  const NodeId l = nearest.landmark[u];
  if (!tables_.is_landmark(l)) return kInfDistance;
  // Subset rows exist only for subset nodes: the other endpoint must be one.
  if (tables_.mode() == LandmarkTables::Mode::kSubset &&
      !tables_.in_subset(out ? t : s)) {
    return kInfDistance;
  }
  return dist_add(nearest.dist[u],
                  out ? tables_.landmark_query(l, t, /*s_is_landmark=*/true)
                      : tables_.landmark_query(s, l, /*s_is_landmark=*/false));
}

QueryResult VicinityOracle::resolve_disjoint(NodeId s, NodeId t,
                                             std::uint32_t lookups,
                                             DisjointWitness* witness) const {
  QueryResult r;
  r.hash_lookups = lookups;
  const Distance rs = stores_[0].radius(s);
  const Distance rt = store(Direction::kIn).radius(t);
  const Distance lb = dist_add(dist_add(rs, rt), 1);
  if (lb == kInfDistance) return r;
  const auto exact = [&r](Distance d, QueryMethod m) {
    r.dist = d;
    r.method = m;
    r.exact = true;
    return r;
  };
  // Step (6) runs first: it reads the vicinities the intersection has just
  // touched and the graph, while a landmark-row read faults in a page of a
  // mostly cold table (on a mapped index, resident memory grows with every
  // row page read). A weighted arc may exceed 1, and a landmark endpoint's
  // vicinity is empty rather than {u}: the test proves nothing there.
  Distance target = lb;
  if (!g_->weighted() && rs != 0 && rt != 0) {
    NodeId x = kInvalidNode;
    NodeId y = kInvalidNode;
    if (find_crossing_edge(s, t, x, y, r.hash_lookups)) {
      if (witness != nullptr) *witness = {x, y, Direction::kOut};
      return exact(lb, QueryMethod::kCrossingEdge);
    }
    target = lb + 1;  // no crossing arc: d >= LB + 1
  }
  // Step (7). The smaller-radius endpoint usually hangs off a hub landmark
  // that attains the bound, so its row is read first and the other only
  // when it misses. Every bound is at least d >= target.
  const Direction first = rs <= rt ? Direction::kOut : Direction::kIn;
  for (const Direction via :
       {first, first == Direction::kOut ? Direction::kIn : Direction::kOut}) {
    if (landmark_bound(via, s, t) == target) {
      if (witness != nullptr) witness->via = via;
      return exact(target, QueryMethod::kLandmarkCertificate);
    }
  }
  return r;
}

bool VicinityOracle::find_crossing_edge(NodeId s, NodeId t, NodeId& x,
                                        NodeId& y,
                                        std::uint32_t& lookups) const {
  const VicinityStore& out = stores_[0];
  const VicinityStore& in = store(Direction::kIn);
  // Both ends of a crossing arc are boundary members: x has the out-
  // neighbour y outside Γ_out(s), y the in-neighbour x outside Γ_in(t).
  const VicinityStore::BoundaryView bs = out.boundary(s);
  const VicinityStore::BoundaryView bt = in.boundary(t);
  const Distance rs = out.radius(s);
  const Distance rt = in.radius(t);
  // Scan the smaller boundary. Weighing each side by its members' degrees
  // probes fewer arcs, but reading those degrees costs more than it saves.
  const bool from_t = bt.nodes.size() < bs.nodes.size();
  const VicinityStore::BoundaryView& mine = from_t ? bt : bs;
  const VicinityStore::BoundaryView& other = from_t ? bs : bt;
  const Distance r_mine = from_t ? rt : rs;
  const Distance r_other = from_t ? rs : rt;
  const NodeId n = g_->num_nodes();
  for (std::size_t i = 0; i < mine.nodes.size(); ++i) {
    const NodeId u = mine.nodes[i];
    // Arena members from a default mmap open are untrusted: an id past n
    // is skipped rather than used to index the graph.
    if (mine.dists[i] != r_mine || u >= n) continue;
    for (const NodeId v : from_t ? g_->in_neighbors(u) : g_->neighbors(u)) {
      ++lookups;
      const auto it =
          std::lower_bound(other.nodes.begin(), other.nodes.end(), v);
      if (it == other.nodes.end() || *it != v ||
          other.dists[static_cast<std::size_t>(it - other.nodes.begin())] !=
              r_other) {
        continue;
      }
      x = from_t ? v : u;
      y = from_t ? u : v;
      return true;
    }
  }
  return false;
}

QueryResult VicinityOracle::fallback_distance_impl(NodeId s, NodeId t,
                                                   std::uint32_t lookups,
                                                   QueryContext* ctx) const {
  QueryResult r;
  r.hash_lookups = lookups;
  switch (opt_.fallback) {
    case Fallback::kNone:
      r.method = QueryMethod::kNotFound;
      return r;
    case Fallback::kBidirectionalBfs: {
      if (ctx == nullptr) {
        r.method = QueryMethod::kNotFound;
        return r;
      }
      r.dist = (g_->weighted() ? algo::bidirectional_dijkstra_distance(
                                     *g_, ctx->scratch_, s, t)
                               : algo::bidirectional_bfs_distance(
                                     *g_, ctx->scratch_, s, t))
                   .dist;
      r.method = QueryMethod::kFallbackExact;
      r.exact = true;
      return r;
    }
    case Fallback::kLandmarkEstimate: {
      // Upper bound d(s,t) <= d(s, ℓ(s)) + d(ℓ(s), t), and on undirected
      // graphs symmetrically via ℓ(t). Directed estimates use only the
      // ℓ_out(s) bound; a bound via ℓ_in(t) would change their answers.
      Distance best = landmark_bound(Direction::kOut, s, t);
      if (!directed()) {
        best = std::min(best, landmark_bound(Direction::kIn, s, t));
      }
      r.dist = best;
      r.method = best == kInfDistance ? QueryMethod::kNotFound
                                      : QueryMethod::kFallbackEstimate;
      r.exact = false;
      return r;
    }
  }
  r.method = QueryMethod::kNotFound;
  return r;
}

bool VicinityOracle::chase_parents(Direction d, NodeId origin, NodeId from,
                                   std::vector<NodeId>& out) const {
  const VicinityStore& vicinities = store(d);
  NodeId cur = from;
  out.push_back(cur);
  // Arena data from a default (structural-only) mmap open is untrusted, so
  // the walk is bounded: an out-of-range parent or a cycle longer than n
  // aborts instead of walking wild (the caller degrades to a search).
  const std::uint64_t limit = g_->num_nodes();
  std::uint64_t steps = 0;
  while (cur != origin) {
    const ProbeResult e = vicinities.find(origin, cur);
    if (!e.found || e.parent == kInvalidNode || e.parent == cur ||
        e.parent >= limit || ++steps > limit) {
      return false;  // chain left the stored vicinity (weighted corner case)
    }
    cur = e.parent;
    out.push_back(cur);
  }
  return true;
}

PathResult VicinityOracle::fallback_path(NodeId s, NodeId t,
                                         QueryContext& ctx) const {
  PathResult p;
  if (opt_.fallback == Fallback::kNone) return p;
  // Both fallback flavors resolve paths exactly: the landmark estimate has
  // no path-bearing structure for arbitrary pairs, so we degrade to the
  // exact search for path queries.
  p.path = g_->weighted()
               ? algo::bidirectional_dijkstra_path(*g_, ctx.scratch_, s, t)
               : algo::bidirectional_bfs_path(*g_, ctx.scratch_, s, t);
  p.dist = p.path.empty() ? kInfDistance
                          : static_cast<Distance>(
                                g_->weighted()
                                    ? algo::path_length(*g_, p.path)
                                    : p.path.size() - 1);
  p.method = QueryMethod::kFallbackExact;
  p.exact = true;
  return p;
}

PathResult VicinityOracle::path(NodeId s, NodeId t, QueryContext& ctx) const {
  if (s >= g_->num_nodes() || t >= g_->num_nodes()) {
    throw std::out_of_range("VicinityOracle::path: node out of range");
  }
  PathResult p;
  if (s == t) {
    p.dist = 0;
    p.path = {s};
    p.method = QueryMethod::kIdenticalNodes;
    p.exact = true;
    return p;
  }

  // A landmark endpoint walks the landmark's tree: s's forward tree, whose
  // walk from t reads s..t backwards, or t's reverse tree, whose walk from
  // s reads s..t.
  const bool s_landmark = landmarks_.contains(s);
  if (tables_.mode() == LandmarkTables::Mode::kFull &&
      (s_landmark || landmarks_.contains(t))) {
    p.method = s_landmark ? QueryMethod::kSourceIsLandmark
                          : QueryMethod::kTargetIsLandmark;
    p.exact = true;
    p.dist = tables_.landmark_query(s, t, s_landmark);
    if (p.dist == kInfDistance) return p;  // provably unreachable
    if (!tables_.walk_tree(*g_, s_landmark ? Direction::kOut : Direction::kIn,
                           s_landmark ? s : t, s_landmark ? t : s, p.path)) {
      throw std::runtime_error("oracle index: corrupt landmark row");
    }
    if (s_landmark) std::reverse(p.path.begin(), p.path.end());
    return p;
  }

  const VicinityStore& out = stores_[0];
  const VicinityStore& in = store(Direction::kIn);
  const bool have_s = out.has(s);
  const bool have_t = in.has(t);
  if (have_s) {
    if (const ProbeResult e = out.find(s, t)) {
      std::vector<NodeId> rev;
      if (chase_parents(Direction::kOut, s, t, rev)) {
        std::reverse(rev.begin(), rev.end());
        return PathResult{e.dist, std::move(rev),
                          QueryMethod::kTargetInSourceVicinity, true};
      }
    }
  }
  if (have_t) {
    if (const ProbeResult e = in.find(t, s)) {
      std::vector<NodeId> walk;
      if (chase_parents(Direction::kIn, t, s, walk)) {
        // chase produced s..t already (parents point toward t).
        return PathResult{e.dist, std::move(walk),
                          QueryMethod::kSourceInTargetVicinity, true};
      }
    }
  }
  if (have_s && have_t) {
    // Re-run the intersection for its witness w: the smallest-id member of
    // ∂Γ(s) ∩ Γ(t) that attains the minimum.
    auto [best, witness] = in.intersect_witness(out.boundary(s), t);
    const Distance accept_limit = dist_add(out.radius(s), in.radius(t));
    if (best > accept_limit) witness = kInvalidNode;  // weighted guard
    if (witness != kInvalidNode) {
      std::vector<NodeId> left;  // w..s -> reversed to s..w
      std::vector<NodeId> right; // w..t
      if (chase_parents(Direction::kOut, s, witness, left) &&
          chase_parents(Direction::kIn, t, witness, right)) {
        std::reverse(left.begin(), left.end());
        left.insert(left.end(), right.begin() + 1, right.end());
        return PathResult{best, std::move(left),
                          QueryMethod::kVicinityIntersection, true};
      }
    } else if (PathResult dp = disjoint_path(s, t); !dp.path.empty()) {
      return dp;
    }
  }
  return fallback_path(s, t, ctx);
}

PathResult VicinityOracle::disjoint_path(NodeId s, NodeId t) const {
  DisjointWitness w;
  const QueryResult r = resolve_disjoint(s, t, 0, &w);
  // Subset tables certify pairs but hold no rows to walk.
  if (!r.exact || (r.method == QueryMethod::kLandmarkCertificate &&
                   tables_.mode() != LandmarkTables::Mode::kFull)) {
    return {};
  }
  std::vector<NodeId> left;   // s..x, or s..ℓ
  std::vector<NodeId> right;  // y..t, or ℓ..t
  bool ok = false;
  if (r.method == QueryMethod::kCrossingEdge) {
    ok = chase_parents(Direction::kOut, s, w.x, left) &&
         chase_parents(Direction::kIn, t, w.y, right);
    std::reverse(left.begin(), left.end());
  } else if (w.via == Direction::kOut) {
    const NodeId l = nearest_[0].landmark[s];
    ok = chase_parents(Direction::kOut, s, l, left) &&
         tables_.walk_tree(*g_, Direction::kOut, l, t, right);
    std::reverse(left.begin(), left.end());
    std::reverse(right.begin(), right.end());
  } else {
    const NodeId l = nearest_[side(Direction::kIn)].landmark[t];
    ok = tables_.walk_tree(*g_, Direction::kIn, l, s, left) &&
         chase_parents(Direction::kIn, t, l, right);
  }
  // A corrupt mapped index can break either walk: keep the search then.
  if (!ok) return {};
  // The crossing arc joins x to y; a certificate's two pieces share ℓ.
  const bool shared = r.method == QueryMethod::kLandmarkCertificate;
  left.insert(left.end(), right.begin() + (shared ? 1 : 0), right.end());
  return PathResult{r.dist, std::move(left), r.method, true};
}

double VicinityOracle::estimate_coverage(std::size_t pairs,
                                         util::Rng& rng) const {
  if (indexed_.size() < 2 || pairs == 0) return 0.0;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId s = indexed_[rng.next_below(indexed_.size())];
    NodeId t = s;
    while (t == s) t = indexed_[rng.next_below(indexed_.size())];
    // Count only resolutions the index answers exactly — steps (0)-(7),
    // the certificate and crossing edge included: a null context makes the
    // exact fallback report not-found, and landmark estimates are excluded
    // below — both fall into the paper's footnote-1 residue.
    const QueryResult r = distance_impl(s, t, nullptr);
    if (r.method != QueryMethod::kNotFound &&
        r.method != QueryMethod::kFallbackEstimate) {
      ++answered;
    }
  }
  return static_cast<double>(answered) / static_cast<double>(pairs);
}

OracleMemoryStats VicinityOracle::memory_stats() const {
  OracleMemoryStats m;
  m.landmark_entries = tables_.entries();
  m.bytes = tables_.memory_bytes() + landmarks_.member.memory_bytes();
  const std::size_t families = this->families();
  for (std::size_t f = 0; f < families; ++f) {
    m.vicinity_entries += stores_[f].total_entries();
    m.boundary_entries += stores_[f].total_boundary_entries();
    m.bytes += stores_[f].memory_bytes() +
               nearest_[f].dist.size() * sizeof(Distance) +
               nearest_[f].landmark.size() * sizeof(NodeId);
  }
  // One stored distance per unordered pair, per ordered pair on directed
  // graphs.
  const auto n = static_cast<std::uint64_t>(g_->num_nodes());
  m.apsp_entries = n * (n - 1) / 2 * families;
  return m;
}

}  // namespace vicinity::core
