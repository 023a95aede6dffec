// VicinityOracle — the paper's point-to-point shortest-path oracle (§3.1,
// Algorithm 1), for undirected networks and — the paper's §5 research
// challenge ("is it possible to extend our approach to social networks
// modeled as directed networks (Twitter, for example)?") — directed ones.
//
// The oracle reads directed() from the graph it is built on. A directed
// index keeps two vicinity families:
//   Γ_out(u): grown along out-arcs with radius r_out(u) = min_l d(u -> l)
//   Γ_in(u):  grown along in-arcs  with radius r_in(u)  = min_l d(l -> u)
// An undirected index is the same oracle with Γ_in ≡ Γ_out: it keeps one
// family, and every in-side accessor returns the out-side object.
//
// Query resolution order (Algorithm 1, arc by arc on directed graphs):
//   (0) s == t                        -> 0
//   (1) s ∈ L                         -> landmark table row
//   (2) t ∈ L                         -> landmark table row
//   (3) t ∈ Γ_out(s)                  -> stored entry
//   (4) s ∈ Γ_in(t)                   -> stored entry
//   (5) vicinity intersection: iterate ∂Γ_out(s) probing Γ_in(t) (or the
//       symmetric pairing, Lemma 1), minimizing d(s,w) + d(w,t)
//                                     -> exact by Theorem 1
//   A miss in (5) — disjoint vicinities, or a minimum the weighted guard
//   rejects — proves d(s,t) >= LB = r_out(s) + r_in(t) + 1, since Γ(u)
//   holds every node within r(u) of u. Two exact tests use that bound:
//   (6) crossing edge (unweighted graphs): an arc from a member of
//       ∂Γ_out(s) at distance r_out(s) to a member of ∂Γ_in(t) at distance
//       r_in(t)                       -> exact, d = LB
//       no such arc raises the bound to LB + 1
//   (7) landmark certificate: UB = min(r_out(s) + d(ℓ_out(s) -> t),
//       d(s -> ℓ_in(t)) + r_in(t)) from the landmark rows equals the
//       bound                         -> exact
//   (8) fallback (exact bidirectional search, landmark upper bound, or
//       none)
//
// Path retrieval follows the same order. Vicinity answers chase the parent
// pointers stored with each member. A landmark endpoint, and a pair that
// step (7) certifies, walks a landmark's shortest-path tree, which the
// tables do not store: LandmarkTables::walk_tree derives each step from
// the landmark's distance row and the current graph. So every pair the
// index answers exactly also gets its path without a search, from full
// tables, on either graph kind.
//
// Build modes: build() indexes every node (a deployable index);
// build_for() indexes a query subset, reproducing the paper's §2.3
// sampled-pairs methodology at a fraction of the memory.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic.h"
#include "core/landmark_table.h"
#include "core/landmarks.h"
#include "core/options.h"
#include "core/vicinity_store.h"
#include "graph/graph.h"

namespace vicinity::util {
class ThreadPool;  // util/thread_pool.h; the repair pool is lazily created
}

namespace vicinity::core {

enum class QueryMethod {
  kIdenticalNodes,
  kSourceIsLandmark,
  kTargetIsLandmark,
  kTargetInSourceVicinity,
  kSourceInTargetVicinity,
  kVicinityIntersection,
  kFallbackExact,
  kFallbackEstimate,
  /// A baseline backend (baselines/baseline_adapters.h) answered with a
  /// provably exact distance (e.g. a TZ bunch hit).
  kBaselineExact,
  /// A baseline backend returned an estimate / upper bound.
  kBaselineEstimate,
  kNotFound,
  // Appended after kNotFound: the ordinals travel on the wire
  // (net::DistanceRecord::method), so existing values never move.
  /// Step (7): a landmark upper bound met the disjoint-vicinity lower
  /// bound (LB, or LB + 1 after step (6) found no crossing arc).
  kLandmarkCertificate,
  /// Step (6): one arc joins the two vicinity shells (unweighted graphs).
  kCrossingEdge,
};

/// Number of QueryMethod enumerators (QueryStats histogram width). Tied to
/// the enum via the last enumerator so appending a method can't silently
/// write past the stats array.
inline constexpr std::size_t kNumQueryMethods =
    static_cast<std::size_t>(QueryMethod::kCrossingEdge) + 1;

const char* to_string(QueryMethod m);

/// Per-thread mutable query state (fallback search scratch + statistics);
/// defined in core/query_engine.h.
class QueryContext;

struct QueryResult {
  Distance dist = kInfDistance;
  QueryMethod method = QueryMethod::kNotFound;
  /// Hash-table probes performed (Table 3's "# Hash-table look-ups").
  std::uint32_t hash_lookups = 0;
  /// True when dist is the exact shortest-path length (kInfDistance with
  /// exact=true means provably unreachable).
  bool exact = false;
};

struct PathResult {
  Distance dist = kInfDistance;
  std::vector<NodeId> path;  ///< s..t inclusive; empty when unavailable
  QueryMethod method = QueryMethod::kNotFound;
  bool exact = false;
};

struct OracleBuildStats {
  double seconds = 0.0;
  std::size_t indexed_nodes = 0;
  std::size_t num_landmarks = 0;
  double mean_vicinity_size = 0.0;
  double max_vicinity_size = 0.0;
  double mean_boundary_size = 0.0;
  double max_boundary_size = 0.0;
  double mean_radius = 0.0;   ///< over indexed nodes (Figure 2 right)
  double max_radius = 0.0;
  std::uint64_t construction_arcs_scanned = 0;
};

struct OracleMemoryStats {
  std::uint64_t vicinity_entries = 0;
  std::uint64_t boundary_entries = 0;
  std::uint64_t landmark_entries = 0;
  std::uint64_t bytes = 0;
  /// APSP comparison of §3.2: n(n-1)/2 stored distances.
  std::uint64_t apsp_entries = 0;
};

class VicinityOracle {
 public:
  /// Indexes every node (two vicinities per node on a directed graph). The
  /// graph must be non-empty and must outlive the oracle.
  static VicinityOracle build(const graph::Graph& g,
                              const OracleOptions& options);

  /// Indexes only `query_nodes` (duplicates ignored). Queries are then
  /// supported between any two indexed nodes (plus landmark endpoints).
  static VicinityOracle build_for(const graph::Graph& g,
                                  const OracleOptions& options,
                                  std::span<const NodeId> query_nodes);

  /// Exact distance query (Algorithm 1 + configured fallback). The oracle
  /// is only read; all mutable state (fallback scratch, stats
  /// accumulation) lives in `ctx`. Any number of threads may query
  /// concurrently as long as each owns its context. Batches across a
  /// worker pool go through QueryEngine::run_batch (core/query_engine.h).
  QueryResult distance(NodeId s, NodeId t, QueryContext& ctx) const;

  /// Shortest-path retrieval (§3.1 path extension): parent chains inside
  /// the stored vicinities, and landmark trees derived from the rows. Same
  /// contract as distance().
  PathResult path(NodeId s, NodeId t, QueryContext& ctx) const;

  /// Applies one edge (arc, on directed graphs) insertion/deletion to `g` —
  /// which must be the exact graph object this oracle was built on — and
  /// incrementally repairs the index (core/dynamic.h): each family's
  /// nearest-landmark field is relaxed or re-swept, only the vicinities
  /// containing an endpoint of the edge are rebuilt (the exact affected
  /// set; Γ_out via a backward candidate search, Γ_in via a forward one),
  /// and landmark rows are refreshed. When the affected set exceeds
  /// options().update_rebuild_fraction of the indexed vicinities, every
  /// vicinity is rebuilt instead (landmarks kept); either way the
  /// post-update index answers every query exactly as a from-scratch
  /// build() would. Requires a full index (build(), not build_for()). Not
  /// safe against in-flight queries — long-lived servers fence updates
  /// through QueryEngine::apply_update.
  UpdateStats apply_update(graph::Graph& g, const GraphUpdate& update);

  /// Fraction of sampled indexed pairs answerable without fallback — the
  /// paper's coverage metric ("99.9% of queries"). Counts every exact
  /// answer the index gives without a search: Algorithm 1's steps (0)-(5)
  /// and the crossing-edge and landmark-certificate steps (6)-(7), which
  /// need no context either.
  double estimate_coverage(std::size_t pairs, util::Rng& rng) const;

  const graph::Graph& graph() const { return *g_; }
  /// True when built on a directed graph (two vicinity families).
  bool directed() const { return g_->directed(); }
  const OracleOptions& options() const { return opt_; }
  const LandmarkSet& landmarks() const { return landmarks_; }
  /// d(u -> L) and ℓ(u) for kOut, d(L -> u) for kIn (the same field on
  /// undirected graphs).
  const NearestLandmarkInfo& nearest_landmark_info(
      Direction d = Direction::kOut) const {
    return nearest_[side(d)];
  }
  /// Γ_out for kOut, Γ_in for kIn (the same store on undirected graphs).
  const VicinityStore& store(Direction d = Direction::kOut) const {
    return stores_[side(d)];
  }
  const LandmarkTables& tables() const { return tables_; }
  const OracleBuildStats& build_stats() const { return build_stats_; }
  const std::vector<NodeId>& indexed_nodes() const { return indexed_; }
  bool is_indexed(NodeId u) const { return stores_[0].has(u); }

  /// Vicinity entries of both families on directed graphs; bytes count
  /// every store, the landmark tables, each nearest-landmark field and the
  /// landmark bitmap.
  OracleMemoryStats memory_stats() const;

  VicinityOracle(VicinityOracle&&) noexcept;
  VicinityOracle& operator=(VicinityOracle&&) noexcept;
  ~VicinityOracle();

 private:
  friend class OracleSerializer;

  // Out-of-line destructor/moves: update_pool_ holds an incomplete
  // util::ThreadPool here.
  VicinityOracle();

  static VicinityOracle build_impl(const graph::Graph& g,
                                   const OracleOptions& options,
                                   std::span<const NodeId> query_nodes,
                                   bool full_index);

  /// Number of vicinity families: 2 on directed graphs, 1 on undirected
  /// ones. Family f is grown along Direction(f).
  std::size_t families() const { return directed() ? 2 : 1; }
  /// Array slot of direction d's family (undirected: always the out side).
  std::size_t side(Direction d) const {
    return directed() ? static_cast<std::size_t>(d) : 0;
  }
  /// Growth direction of family f.
  static Direction direction(std::size_t f) {
    return static_cast<Direction>(f);
  }

  /// Steps (1)-(2); returns true when resolved.
  bool try_landmark_query(NodeId s, NodeId t, QueryResult& out) const;

  /// Stateless (const) query core used by every distance entry point: runs
  /// Algorithm 1 and the landmark-estimate fallback; exact-search fallbacks
  /// use the context's scratch (null context => not-found).
  QueryResult distance_impl(NodeId s, NodeId t, QueryContext* ctx) const;

  /// Step (5): Γ_out(s) against Γ_in(t); dist=kInfDistance when the
  /// vicinities do not intersect.
  QueryResult intersect(NodeId s, NodeId t) const;

  /// Landmark upper bound on d(s -> t) through one endpoint's nearest
  /// landmark: `via` kOut gives r_out(s) + d(ℓ_out(s) -> t), kIn gives
  /// d(s -> ℓ_in(t)) + r_in(t). kInfDistance when no stored row answers it
  /// (no tables, or a subset table missing the other endpoint) or ℓ is not
  /// a landmark (none reachable, or a corrupt mapped index).
  Distance landmark_bound(Direction via, NodeId s, NodeId t) const;

  /// What resolve_disjoint's exact answer rests on: the crossing arc
  /// x -> y (kCrossingEdge), or the nearest landmark whose bound met the
  /// certificate, ℓ_out(s) for kOut and ℓ_in(t) for kIn
  /// (kLandmarkCertificate).
  struct DisjointWitness {
    NodeId x = kInvalidNode;
    NodeId y = kInvalidNode;
    Direction via = Direction::kOut;
  };

  /// Steps (6)-(7) for two indexed endpoints whose step (5) missed, after
  /// `lookups` probes: an exact result on success, otherwise exact == false
  /// and the caller runs the fallback. hash_lookups adds step (6)'s probes
  /// either way. `witness`, when non-null, receives what an exact answer
  /// rests on.
  QueryResult resolve_disjoint(NodeId s, NodeId t, std::uint32_t lookups,
                               DisjointWitness* witness = nullptr) const;

  /// Step (6)'s search: an arc x -> y with x ∈ ∂Γ_out(s) at distance
  /// r_out(s) and y ∈ ∂Γ_in(t) at distance r_in(t). Scans the smaller
  /// boundary's shell; one lookup per probed neighbour.
  bool find_crossing_edge(NodeId s, NodeId t, NodeId& x, NodeId& y,
                          std::uint32_t& lookups) const;

  QueryResult fallback_distance_impl(NodeId s, NodeId t,
                                     std::uint32_t lookups,
                                     QueryContext* ctx) const;

  /// Appends `from`..origin walking parent pointers inside direction d's
  /// vicinity of `origin` (Γ_in parents are successors toward the origin,
  /// so that walk emits the forward path); false when the chain leaves the
  /// stored vicinity (possible only on weighted graphs).
  bool chase_parents(Direction d, NodeId origin, NodeId from,
                     std::vector<NodeId>& out) const;

  /// PATH for an indexed pair whose step (5) missed, from
  /// resolve_disjoint's witness: the two vicinity chains joined by the
  /// crossing arc, or one chain and the walk of the certifying landmark's
  /// tree. Empty path when the pair is not certified or a chain is broken.
  PathResult disjoint_path(NodeId s, NodeId t) const;

  PathResult fallback_path(NodeId s, NodeId t, QueryContext& ctx) const;

  /// Re-runs the truncated-search builder for `nodes` of family `f`
  /// against the current graph and nearest-landmark field, replacing their
  /// store slots.
  void rebuild_vicinities(std::size_t f, std::span<const NodeId> nodes);

  const graph::Graph* g_ = nullptr;
  OracleOptions opt_;
  LandmarkSet landmarks_;
  /// Indexed by Direction: r_out/ℓ_out and Γ_out at kOut, r_in/ℓ_in and
  /// Γ_in at kIn. Undirected oracles use only the kOut entries.
  std::array<NearestLandmarkInfo, 2> nearest_;
  std::array<VicinityStore, 2> stores_;
  LandmarkTables tables_;
  OracleBuildStats build_stats_;
  std::vector<NodeId> indexed_;
  /// Lazily-created worker pool reused across apply_update() calls so
  /// hub-sized repairs do not pay thread spawn/teardown per update.
  std::unique_ptr<util::ThreadPool> update_pool_;
};

}  // namespace vicinity::core
