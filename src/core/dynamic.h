// Dynamic-update subsystem (the follow-up paper "Shortest Paths in
// Microseconds", arXiv:1309.0874): a built vicinity index absorbs edge
// insertions and deletions incrementally instead of rebuilding.
//
// The repair obligations after mutating one edge (a, b):
//   * nearest-landmark field — d(u, L) defines every vicinity radius.
//     Inserts only decrease it (bounded decrease-only relaxation); a
//     delete can change it (or the landmark assignments riding on it)
//     only when the edge was tight for the field at an endpoint, which
//     costs one O(1) check; tight deletes pay a full multi-source sweep.
//   * vicinities — on unweighted graphs the affected set is exactly the
//     indexed nodes whose vicinity contains an endpoint of the edge: any
//     distance, membership, boundary, or radius change inside Γ(x) routes
//     through a path that enters Γ(x), so an endpoint must already be a
//     member. On weighted graphs shortest paths to shell members may leave
//     the vicinity, so the set widens to every x whose radius (padded by
//     the maximum edge weight) reaches an endpoint. Either set is
//     enumerated by a truncated search from each endpoint, pruned per node
//     by its radius (radii of adjacent nodes differ by at most the arc
//     weight, so the pruned frontier is exact, not heuristic); unweighted
//     hits are confirmed by an O(1) membership probe. Each vicinity is then
//     by the ordinary truncated-BFS/Dijkstra builder — equal, by
//     construction, to what a from-scratch build would store.
//   * landmark tables — per-row decrease-only relaxation on inserts; full
//     row recompute on load-bearing deletes (same support check).
//
// The oracle exposes this as apply_update() (core/oracle.h), once per
// vicinity family on directed graphs; serving layers fence updates from
// queries via QueryEngine::apply_update (core/query_engine.h).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dist_column.h"
#include "core/landmarks.h"
#include "core/vicinity_store.h"
#include "graph/graph.h"
#include "util/flat_hash.h"
#include "util/types.h"

namespace vicinity::core {

enum class UpdateKind : std::uint8_t { kInsert, kDelete };

const char* to_string(UpdateKind k);

/// One edge mutation. Undirected graphs treat (u, v) as the edge {u, v};
/// directed graphs as the arc u -> v.
struct GraphUpdate {
  UpdateKind kind = UpdateKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  /// Insert only (must be 1 on unweighted graphs); deletes look the weight
  /// up from the graph.
  Weight weight = 1;

  static GraphUpdate insert(NodeId u, NodeId v, Weight w = 1) {
    return GraphUpdate{UpdateKind::kInsert, u, v, w};
  }
  static GraphUpdate remove(NodeId u, NodeId v) {
    return GraphUpdate{UpdateKind::kDelete, u, v, 1};
  }
};

/// What one apply_update() did — the observability surface bench_updates
/// and the tests key off.
struct UpdateStats {
  UpdateKind kind = UpdateKind::kInsert;
  /// Vicinities rebuilt (== affected-set size; all indexed nodes when
  /// full_rebuild).
  std::size_t affected_vicinities = 0;
  /// Nodes whose nearest-landmark distance or landmark changed.
  std::size_t radius_changes = 0;
  /// Landmark-table rows touched (relaxed or recomputed).
  std::size_t landmark_rows_refreshed = 0;
  /// Vicinities where only one member's boundary flag was refreshed in
  /// place instead of rebuilding.
  std::size_t boundary_patches = 0;
  /// Nodes scanned by the affected-set enumeration (the update's search
  /// footprint; compare construction_arcs_scanned at build).
  std::size_t candidates_scanned = 0;
  /// True when the affected set crossed OracleOptions::
  /// update_rebuild_fraction and every vicinity was rebuilt instead.
  bool full_rebuild = false;
  double seconds = 0.0;
};

namespace detail {

/// Truncated candidate search from `endpoint` along the opposite arc set
/// of `dir`: fills `dist_out[x] = d_dir(x, endpoint)` for every node the
/// pruned search visits. `radius_of[x]` is the node's current vicinity
/// radius (d(x, L); defined for every node, indexed or not) and prunes
/// expansion: x is expanded only while d <= radius_of[x] + slack (slack =
/// max edge weight on weighted graphs — shell members and their
/// off-vicinity shortest paths can overshoot the radius by one arc — and 0
/// on unweighted ones). The pruning is exact, not heuristic: along any
/// shortest path, radii drop by at most the arc weight per hop, so every
/// node within its own padded radius of `endpoint` is reached. Increments
/// `scanned` per visited node.
void collect_candidates(const graph::Graph& g,
                        std::span<const Distance> radius_of, NodeId endpoint,
                        Direction dir, Distance slack,
                        util::FlatHashMap<NodeId, Distance>& dist_out,
                        std::size_t& scanned);

/// The two repair flavors one edge mutation induces on a vicinity family.
struct AffectedSets {
  /// Vicinities whose member set, stored distances, or parents can change:
  /// rebuild via the ordinary truncated-search builder. Sorted ascending.
  std::vector<NodeId> rebuild;
  /// Vicinities where only the boundary flag of one member-endpoint can
  /// change (the mutated edge's other end lies outside): (origin, member)
  /// pairs for VicinityStore::refresh_boundary_flag. Never overlaps
  /// rebuild.
  std::vector<std::pair<NodeId, NodeId>> flag_patches;
};

/// Classifies the candidates of one vicinity family (store grown along
/// `dir`) for the mutation of edge/arc a -> b with weight w. `from_a` /
/// `from_b` are collect_candidates() maps for the two endpoints, gathered
/// on the PRE-mutation graph with PRE-mutation radii; membership probes run
/// against the (not yet repaired) store. A vicinity is rebuilt only when
/// the edge is local to it — both endpoints members (delete), an endpoint
/// in its ball (weighted membership churn), or a strict distance
/// improvement entering its padded radius (insert); a member-endpoint
/// whose other end lies outside only needs its boundary flag refreshed.
AffectedSets decide_affected(const graph::Graph& g, const VicinityStore& store,
                             std::span<const Distance> radius_of,
                             UpdateKind kind, Direction dir, NodeId a,
                             NodeId b, Weight w,
                             const util::FlatHashMap<NodeId, Distance>& from_a,
                             const util::FlatHashMap<NodeId, Distance>& from_b);

/// Decrease-only repair of `info` after inserting arc a -> b (weight w).
/// `direction` follows the nearest_landmarks() convention: kOut repairs
/// d(u -> L) (relaxes along in-arcs), kIn repairs d(L -> u). Returns the
/// nodes whose distance or landmark changed.
std::vector<NodeId> repair_nearest_insert(const graph::Graph& g,
                                          NearestLandmarkInfo& info, NodeId a,
                                          NodeId b, Weight w,
                                          Direction direction);

/// Repair of `info` after deleting arc a -> b (weight w, captured before
/// the deletion; `g` is post-delete). If the arc was not tight for the
/// field at an endpoint, neither distances nor landmark assignments can
/// have changed and the result is empty; otherwise the field is recomputed
/// with one multi-source sweep (distances AND assignments — an assignment
/// can go stale even when every distance survives through an alternative
/// support) and the nodes whose distance changed are returned. Nodes whose
/// assignment flipped at unchanged distance (tie re-breaks) are appended
/// to `assignment_only_changed` when non-null — their vicinities need no
/// rebuild, only a store-metadata refresh.
std::vector<NodeId> repair_nearest_delete(
    const graph::Graph& g, const LandmarkSet& landmarks,
    NearestLandmarkInfo& info, NodeId a, NodeId b, Weight w,
    Direction direction,
    std::vector<NodeId>* assignment_only_changed = nullptr);

/// Folds the radius-changed node list into `sets.rebuild` (deduplicated,
/// re-sorted when anything new landed) and records the final rebuild set
/// in `rebuild_set`. Applied once per vicinity family by apply_update.
void merge_radius_changes(AffectedSets& sets,
                          std::span<const NodeId> radius_changed,
                          util::FlatHashSet<NodeId>& rebuild_set);

/// Decrease-only relaxation over a dense distance field (landmark-row
/// refresh): `seeds` were already lowered in `dist`; improvements spread
/// along out-arcs (use_in_arcs = false) or in-arcs. Returns lowered-node
/// count.
std::size_t relax_row(const graph::Graph& g, bool use_in_arcs, DistRow dist,
                      std::span<const NodeId> seeds);

/// A tight support of x in a dense single-source distance field (a
/// DistView or DistRow of a landmark row): an upstream neighbour y with
/// dist[y] + w(y, x) == dist[x] that `skip` does not reject, or
/// kInvalidNode. use_in_arcs follows relax_row's convention, so upstream
/// means an in-neighbour when it is false (dist measured from a source
/// along out-arcs) and an out-neighbour when it is true (dist measured to a
/// target). Every neighbour id comes from `g`, so dist must span
/// g.num_nodes() entries.
template <typename Dist, typename Skip>
NodeId tight_support(const graph::Graph& g, bool use_in_arcs,
                     const Dist& dist, NodeId x, Skip&& skip) {
  const bool weighted = g.weighted();
  const auto ups = use_in_arcs ? g.neighbors(x) : g.in_neighbors(x);
  const auto uw = weighted ? (use_in_arcs ? g.weights(x) : g.in_weights(x))
                           : std::span<const Weight>{};
  for (std::size_t i = 0; i < ups.size(); ++i) {
    const NodeId y = ups[i];
    if (skip(y)) continue;
    if (dist_add(dist[y], weighted ? uw[i] : Weight{1}) == dist[x]) return y;
  }
  return kInvalidNode;
}

/// Increase-only repair of a dense single-source distance field after
/// deleting arc a -> b (weight w, captured pre-delete; `g` post-delete).
/// The classic two-phase repair: walk the old tight-arc DAG from the
/// downstream endpoint collecting nodes that lost every support, then
/// re-settle exactly that region from its unaffected rim — O(region), not
/// O(n + m), so detaching a leaf costs O(degree) instead of a full sweep.
/// The region's new distances are settled aside and written last, so a
/// byte-wide row widens at most once, before its first write. use_in_arcs
/// follows relax_row's convention (false = distances from a source along
/// out-arcs; true = distances to a target along in-arcs). Returns the
/// number of nodes whose distance actually changed (0 when the arc was not
/// load-bearing).
std::size_t repair_row_delete(const graph::Graph& g, bool use_in_arcs,
                              DistRow dist, NodeId a, NodeId b);

}  // namespace detail

}  // namespace vicinity::core
