// Per-landmark distance tables (paper §3.1: "if u ∈ L, the data structure
// stores a hash table containing the exact distance from u to each other
// node v ∈ V").
//
// The tables hold distances only, in one of two modes:
//  * kFull — one dense distance row per landmark, plus a reverse row on
//    directed graphs. This is the paper's structure; we use flat arrays
//    instead of hash tables because landmark rows are dense over V. The
//    rows also determine each landmark's shortest-path trees: walk_tree()
//    derives a tree path from a row and the graph, so PATH needs no stored
//    parents.
//  * kSubset — the paper's own evaluation (§2.3) queries only pairs from a
//    sampled node set; then it suffices to store d(v, l) for v in the
//    sample and l in L, computed with one search per sampled node. Memory
//    drops from |L|·n to |sample|·|L|.
//
// Every matrix is a core/dist_column.h column: one byte per entry when each
// finite distance it holds is at most 254 (the landmarks' eccentricities on
// the paper's social graphs are single digits), four bytes otherwise.
//
// The oracle picks the cheaper mode automatically in build_for().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/dist_column.h"
#include "core/landmarks.h"
#include "graph/graph.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace vicinity::core {

class LandmarkTables {
 public:
  enum class Mode { kNone, kFull, kSubset };

  LandmarkTables() = default;

  // Every matrix is a DistColumn over owned storage or a mapping. A move
  // carries the owned buffer, and so the view, along; a copy would not.
  LandmarkTables(LandmarkTables&&) noexcept = default;
  LandmarkTables& operator=(LandmarkTables&&) noexcept = default;
  LandmarkTables(const LandmarkTables&) = delete;
  LandmarkTables& operator=(const LandmarkTables&) = delete;

  /// Full mode: one SSSP per landmark (two on directed graphs). `pool` may
  /// be null.
  static LandmarkTables build_full(const graph::Graph& g,
                                   const LandmarkSet& landmarks,
                                   util::ThreadPool* pool = nullptr);

  /// Subset mode: one SSSP per subset node (two on directed graphs),
  /// recording distances to every landmark.
  static LandmarkTables build_subset(const graph::Graph& g,
                                     const LandmarkSet& landmarks,
                                     std::span<const NodeId> subset,
                                     util::ThreadPool* pool = nullptr);

  Mode mode() const { return mode_; }

  /// d(l -> v) for landmark l. kFull mode only.
  Distance dist_from_landmark(NodeId l, NodeId v) const;
  /// d(v -> l) for landmark l (== dist_from_landmark on undirected graphs).
  /// kFull mode only.
  Distance dist_to_landmark(NodeId v, NodeId l) const;

  /// Appends `from`..l along one of landmark l's shortest-path trees,
  /// derived from its row and the current graph `g`. kOut walks the forward
  /// tree of d(l -> v): each step moves to an in-neighbour x with
  /// d(l -> x) + w(x, v) = d(l -> v), so the nodes read the path l -> from
  /// backwards. kIn walks the reverse tree of d(v -> l): each step moves to
  /// an out-neighbour, so the nodes read from -> l forwards. Undirected
  /// graphs walk their one row either way. kFull mode only. Returns false
  /// when `from` is out of range or unreachable, no step is tight, or the
  /// walk passes n steps (a corrupt mapped row); `out` then holds a partial
  /// walk.
  bool walk_tree(const graph::Graph& g, Direction dir, NodeId l, NodeId from,
                 std::vector<NodeId>& out) const;

  /// Subset mode: d(v -> l) / d(l -> v) for a *subset* node v and landmark
  /// l; throws if v is not in the subset or l not a landmark.
  Distance subset_dist_to_landmark(NodeId v, NodeId l) const;
  Distance subset_dist_from_landmark(NodeId l, NodeId v) const;

  // --- Dynamic refresh (core/dynamic.h) -----------------------------------
  // kFull mode only; both throw std::logic_error otherwise.

  /// Decrease-only relaxation of every row after inserting arc a -> b of
  /// weight w into `g` (post-insert; undirected graphs repair both
  /// orientations). Returns the number of rows with at least one change.
  /// A byte-wide matrix widens when a node becomes reachable at a distance
  /// above 254.
  std::size_t refresh_rows_insert(const graph::Graph& g, NodeId a, NodeId b,
                                  Weight w);

  /// Repair after deleting arc a -> b (`g` is post-delete). Each row runs
  /// the bounded increase-repair (core/dynamic.h repair_row_delete): rows
  /// where the arc was not load-bearing exit after one O(degree) support
  /// check, others re-settle only the invalidated region; a byte-wide
  /// matrix widens before a row stores a distance above 254. Returns rows
  /// with at least one change.
  std::size_t refresh_rows_delete(const graph::Graph& g, NodeId a, NodeId b);

  /// Resolves d(s, t) when s or t is a landmark, honoring the mode; returns
  /// kInfDistance when unreachable. `s_is_landmark` selects which endpoint
  /// is in L. In subset mode the non-landmark endpoint must be a subset
  /// node.
  Distance landmark_query(NodeId s, NodeId t, bool s_is_landmark) const;

  bool is_landmark(NodeId u) const {
    return u < landmark_index_.size() && landmark_index_[u] != kInvalidNode;
  }
  bool in_subset(NodeId u) const {
    return u < subset_index_.size() && subset_index_[u] != kInvalidNode;
  }

  std::uint64_t entries() const;
  /// The matrices at their stored widths (mapped ones included) plus the
  /// index arrays.
  std::uint64_t memory_bytes() const;
  /// True when every non-empty matrix holds one byte per entry.
  bool narrow() const {
    return std::ranges::all_of(
        std::array{&fwd_, &rev_, &to_lm_, &from_lm_},
        [](const DistColumn* m) { return m->size() == 0 || m->narrow(); });
  }

  /// True when the matrices alias external read-only storage (a mapped
  /// region container). The dynamic-refresh entry points materialize (copy
  /// into owned matrices, dropping the backing) before mutating.
  bool mapped() const { return backing_ != nullptr; }

 private:
  friend class OracleSerializer;

  void index_landmarks(const LandmarkSet& landmarks, NodeId n);

  /// Row i of a kFull matrix: n entries, one per node.
  DistView row(const DistColumn& m, std::size_t i) const {
    const std::size_t n = landmark_index_.size();
    return m.view().subspan(i * n, n);
  }
  /// The same row of an owned (materialized) matrix, for the refresh.
  DistRow owned_row(DistColumn& m, std::size_t i) const {
    return DistRow(m, i * landmark_index_.size());
  }

  /// Copies mapped storage into the owned matrices and drops the backing
  /// (copy-on-write for the dynamic-refresh path). No-op when not mapped.
  void materialize();

  Mode mode_ = Mode::kNone;
  bool directed_ = false;
  std::vector<NodeId> landmark_nodes_;
  std::vector<NodeId> landmark_index_;  ///< node -> landmark ordinal
  // kFull: fwd_ row i holds d(l_i -> v); rev_ only on directed graphs, row
  // i holds d(v -> l_i).
  DistColumn fwd_;
  DistColumn rev_;
  // kSubset: one row per subset node over landmark ordinals.
  std::vector<NodeId> subset_nodes_;
  std::vector<NodeId> subset_index_;  ///< node -> subset ordinal
  DistColumn to_lm_;    ///< [subset][lm] d(v -> l)
  DistColumn from_lm_;  ///< [subset][lm] d(l -> v); empty on undirected graphs
  /// Keeps a mapped region container alive while the views alias it.
  std::shared_ptr<const void> backing_;
};

}  // namespace vicinity::core
