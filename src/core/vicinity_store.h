// Per-node vicinity storage (paper §3.1 data structure).
//
// For each indexed node u the store keeps the membership map v -> d(u,v)
// (the paper's central data structure), the boundary ∂Γ(u) as parallel
// (node, distance) arrays so Algorithm 1's loop is a linear scan, and
// metadata (radius, nearest landmark, sizes). No parents are stored:
// walk_tree() derives PATH's steps.
//
// The paper keeps each vicinity in a GNU-STL hash table (§3.2) and leaves
// "more customized data structures" open (§5). This store answers that
// with one shared arena holding every vicinity as a CSR-style slice: one
// members[] array, a parallel dists[] column (core/dist_column.h, one byte
// per entry when every value fits) and a per-node (offset, len,
// boundary_len) slot. Boundary members lead each slice (both groups sorted
// by NodeId), so boundary() is a zero-copy span, find() a binary search,
// and intersect_min() merge/gallops two sorted slices instead of issuing N
// dependent hash probes (bench_ablation_hash times the two).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dist_column.h"
#include "core/vicinity_builder.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace vicinity::core {

struct StoredEntry {
  Distance dist = kInfDistance;
};

/// Value-semantics probe result; found == false leaves dist at its sentinel.
struct ProbeResult {
  Distance dist = kInfDistance;
  bool found = false;
  explicit operator bool() const { return found; }
};

namespace detail {

/// Sorted-array intersection kernels (the query hot path; exposed for
/// bench_micro and direct unit tests). All inputs are strictly-ascending
/// NodeId arrays with parallel distances at either width; the result is the
/// minimum of dist_add(a_dist, b_dist) over common nodes, or kInfDistance
/// when the arrays are disjoint. Each call dispatches once on the two
/// widths. A non-null `witness` receives the smallest common node that
/// attains the minimum (kInvalidNode when none does).
Distance merge_intersect_min(std::span<const NodeId> a_nodes,
                             DistView a_dists,
                             std::span<const NodeId> b_nodes,
                             DistView b_dists, NodeId* witness = nullptr);

/// Galloping (exponential-search) variant for |a| << |b|.
Distance gallop_intersect_min(std::span<const NodeId> a_nodes,
                              DistView a_dists,
                              std::span<const NodeId> b_nodes,
                              DistView b_dists, NodeId* witness = nullptr);

/// Size-ratio threshold above which intersect_sorted_min gallops the
/// smaller side through the larger instead of merging.
inline constexpr std::size_t kGallopSkew = 8;

/// Adaptive dispatch: iterates the smaller array, galloping when the skew
/// exceeds kGallopSkew, merging otherwise.
Distance intersect_sorted_min(std::span<const NodeId> a_nodes,
                              DistView a_dists,
                              std::span<const NodeId> b_nodes,
                              DistView b_dists, NodeId* witness = nullptr);

}  // namespace detail

class VicinityStore {
 public:
  VicinityStore() = default;
  explicit VicinityStore(NodeId num_nodes);

  /// The store's mutation capability (a phantom role, util/mutex.h): no
  /// runtime lock exists, but every mutating caller states its mode for
  /// Clang's thread-safety analysis. SHARED (util::SharedRoleGuard) for the
  /// per-slot writes safe on distinct nodes — set(), refresh_boundary_flag(),
  /// set_nearest_landmark() — and EXCLUSIVE (util::RoleGuard) for prepare(),
  /// pack(), pack_if_needed() and adopt_packed(). Queries are unconstrained;
  /// fencing them against mutation is the caller's (QueryEngine's epoch lock).
  util::ExclusiveRole& mutation_role() const
      VICINITY_RETURN_CAPABILITY(mutation_role_) {
    return mutation_role_;
  }

  /// Registers `nodes` for indexing, allocating one slot each. Must be
  /// called before set(); slots for distinct nodes may then be filled
  /// concurrently.
  void prepare(std::span<const NodeId> nodes)
      VICINITY_REQUIRES(mutation_role_);

  /// Fills u's slot from a built vicinity (v.origin must equal u), replacing
  /// any previous one (the repair path). Concurrent set() calls for
  /// DISTINCT nodes are safe: a slice that fits its arena region and width
  /// is written in place, any other is parked in slot-local staging (its
  /// column at its own width) until pack() stitches it into the arena.
  void set(NodeId u, const Vicinity& v)
      VICINITY_REQUIRES_SHARED(mutation_role_);

  /// True when u was prepared (vicinity available; possibly empty if u∈L).
  bool has(NodeId u) const {
    return u < slot_of_.size() && slot_of_[u] != kInvalidNode;
  }

  /// Γ(u) probe: the entry for v, or found == false. Requires has(u).
  /// Probing the invalid-node sentinel is a checked error. Branch-light
  /// binary search over the two sorted groups of u's slice.
  ProbeResult find(NodeId u, NodeId v) const {
    if (v == kInvalidNode) {
      throw std::invalid_argument("VicinityStore: probing the invalid node");
    }
    const PerNode& p = slots_[slot_of_[u]];
    const ConstSlice s = slice(p);
    const std::size_t i = index_of(p, s, v);
    if (i == p.len) return ProbeResult{};
    return ProbeResult{s.dists[i], true};
  }

  struct BoundaryView {
    std::span<const NodeId> nodes;
    DistView dists;
  };
  /// ∂Γ(u) as parallel arrays sorted ascending by node. Requires has(u).
  /// Zero-copy: the spans alias the front of u's arena slice.
  BoundaryView boundary(NodeId u) const {
    const PerNode& p = slots_[slot_of_[u]];
    const ConstSlice s = slice(p);
    return BoundaryView{{s.members, p.boundary_len},
                        s.dists.subspan(0, p.boundary_len)};
  }

  /// All members of Γ(u) with entries, via callback: fn(node, entry), in
  /// slice order (boundary group, then interior group).
  template <typename Fn>
  void for_each_member(NodeId u, Fn&& fn) const {
    const PerNode& p = slots_[slot_of_[u]];
    const ConstSlice s = slice(p);
    for (std::uint32_t i = 0; i < p.len; ++i) {
      fn(s.members[i], StoredEntry{s.dists[i]});
    }
  }

  /// Algorithm 1's intersection step as a store-resident kernel: the
  /// minimum of iter.dists[i] + d(probe_u, iter.nodes[i]) over the members
  /// of `iter` present in Γ(probe_u), or kInfDistance. `iter` must be
  /// sorted ascending by node (boundary() views are). `lookups` counts one
  /// probe per iterated element — the paper's Table-3 hash-lookup
  /// statistic.
  Distance intersect_min(const BoundaryView& iter, NodeId probe_u,
                         std::uint32_t& lookups) const;

  /// intersect_min()'s minimum with its witness: the smallest node id among
  /// the common members that attain it (kInvalidNode when there is none).
  /// PATH joins the two vicinities' tree walks at the witness.
  std::pair<Distance, NodeId> intersect_witness(const BoundaryView& iter,
                                                NodeId probe_u) const;

  /// Appends `from`..u along a shortest-path tree of Γ(u) (this store grown
  /// along `dir`) derived from the stored distances and the current graph:
  /// w's parent is a member x with d(u,x) + w(x,w) = d(u,w) and an arc
  /// x -> w (kOut) or w -> x (kIn), with no scratch memory. kOut walks read
  /// u -> from backwards, kIn walks from -> u. False, leaving a partial
  /// walk, when `from` is no member or no step stays in Γ(u) (a weighted
  /// shortest path, or a corrupt mapped slice). Requires has(u).
  bool walk_tree(const graph::Graph& g, Direction dir, NodeId u, NodeId from,
                 std::vector<NodeId>& out) const;

  /// Estimated cost of intersect_min with `iter_elems` iterated elements
  /// against Γ(probe_u) — the side-selection model: the kernel pays
  /// min(merge, gallop) against the probe slice length.
  double intersect_cost(std::size_t iter_elems, NodeId probe_u) const;

  /// Side-selection model for the full-iteration ablation path, which
  /// performs one membership probe (a binary search) per iterated member —
  /// no merge variant exists there, so no a+b term.
  double scan_probe_cost(std::size_t iter_elems, NodeId probe_u) const;

  Distance radius(NodeId u) const { return slots_[slot_of_[u]].radius; }
  NodeId nearest_landmark(NodeId u) const {
    return slots_[slot_of_[u]].nearest_landmark;
  }
  /// Dynamic repair: refreshes the stored nearest-landmark metadata when a
  /// delete re-breaks a tie at unchanged distance (same radius, so the
  /// vicinity itself needs no rebuild). Requires has(u).
  void set_nearest_landmark(NodeId u, NodeId l)
      VICINITY_REQUIRES_SHARED(mutation_role_) {
    slots_[slot_of_[u]].nearest_landmark = l;
  }
  std::size_t vicinity_size(NodeId u) const { return slots_[slot_of_[u]].len; }
  std::size_t boundary_size(NodeId u) const {
    return slots_[slot_of_[u]].boundary_len;
  }

  /// Dynamic repair: recomputes whether `member` (∈ Γ(u)) has a
  /// `direction` neighbor outside Γ(u) and updates its flag in place
  /// (early-exits on the first outside neighbor). The member is rotated
  /// between the boundary and interior groups of its slice, preserving both
  /// sort orders without any allocation. Ball members stay interior by
  /// construction. Requires has(u) and member ∈ Γ(u).
  void refresh_boundary_flag(NodeId u, NodeId member, const graph::Graph& g,
                             Direction direction)
      VICINITY_REQUIRES_SHARED(mutation_role_);

  // ---- Arena lifecycle ---------------------------------------------------

  /// Stitches every staged slice into one contiguous, slack-free arena
  /// (slot order; a build's batches are appended) and reclaims holes left
  /// by replacements, its distances at the narrowest width that holds them.
  /// NOT thread-safe: no concurrent set()/find() may run.
  void pack() VICINITY_REQUIRES(mutation_role_);

  /// pack() when the wasted + staged entries exceed a quarter of the live
  /// entries (the "occasional compaction" of the update path); cheap no-op
  /// otherwise.
  void pack_if_needed() VICINITY_REQUIRES(mutation_role_);

  /// True when every slice lives in the arena (no staged slots).
  bool fully_packed() const { return staged_slots_ == 0; }

  /// An owned packed store (VCNIDX04 bodies and heap opens import one,
  /// export_view's scratch holds one). Slices appear in slot (prepare)
  /// order, each its boundary group then its interior group, both strictly
  /// ascending.
  struct PackedBlob {
    std::vector<Distance> radius;             ///< per slot
    std::vector<NodeId> nearest;              ///< per slot
    std::vector<std::uint32_t> len;           ///< per slot
    std::vector<std::uint32_t> boundary_len;  ///< per slot
    std::vector<NodeId> members;              ///< concatenated slices
    DistColumn dists;
  };
  /// Adopts `blob` wholesale after prepare(). Validates shape, ranges and
  /// per-group sort order against untrusted input, throwing
  /// std::runtime_error on any violation.
  void adopt_packed(PackedBlob&& blob) VICINITY_REQUIRES(mutation_role_);

  /// Borrowed view of a packed store region — the spans alias external
  /// storage (a mapped region container or any caller-owned buffer) instead
  /// of owned vectors.
  struct PackedView {
    std::span<const Distance> radius;             ///< per slot
    std::span<const NodeId> nearest;              ///< per slot
    std::span<const std::uint32_t> len;           ///< per slot
    std::span<const std::uint32_t> boundary_len;  ///< per slot
    std::span<const NodeId> members;              ///< concatenated slices
    DistView dists;
  };

  /// Adopts `view` zero-copy after prepare(): slices read the external
  /// storage (kept alive by `backing`) until mutation copies on write (set()
  /// stages, refresh_boundary_flag() copies the slice, pack() materializes
  /// all and drops `backing`). Structural validation always runs;
  /// `deep_validate` adds adopt_packed's O(total entries) member range,
  /// sort and disjointness scan. Skipping it keeps an mmap open O(slots),
  /// and corrupt members yield wrong answers, not UB.
  void adopt_packed_view(const PackedView& view,
                         std::shared_ptr<const void> backing,
                         bool deep_validate) VICINITY_REQUIRES(mutation_role_);

  /// Slot-table copy + arena view for serialization: fills `scratch`'s
  /// per-slot vectors and aliases the live arenas when they are contiguous
  /// in slot order, else a compact copy in `scratch` (narrowest width).
  /// Valid while the store and `scratch` are alive and unmutated.
  PackedView export_view(PackedBlob& scratch) const;

  /// True when the arenas alias a mapped file not yet copied on write.
  bool mapped() const { return backing_ != nullptr; }

  /// True when every stored distance takes one byte: the arena's column and
  /// every staged slice's.
  bool narrow() const;

  std::size_t indexed_nodes() const { return slots_.size(); }
  /// Total Γ entries across indexed nodes (the paper's per-node ~α√n cost).
  std::uint64_t total_entries() const { return total_entries_; }
  std::uint64_t total_boundary_entries() const { return total_boundary_; }
  /// Approximate heap bytes of the arenas, slots and slot index, each
  /// distance column at its stored width.
  std::uint64_t memory_bytes() const;
  /// Bytes aliased from external storage (0 unless mapped()), distances at
  /// their stored width. File-backed (shared through the page cache), so
  /// kept out of memory_bytes()'s heap accounting.
  std::uint64_t mapped_bytes() const {
    return mm_members_.size() * sizeof(NodeId) + arena_dists_.borrowed_bytes();
  }

 private:
  /// A slice parked outside the arena until the next pack().
  struct StagedSlice {
    std::vector<NodeId> members;
    DistColumn dists;
  };
  struct PerNode {
    // An arena region [offset, offset+cap) holding `len` = |Γ(u)| live
    // entries, or (staged != nullptr) a staged slice.
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
    std::uint32_t boundary_len = 0;
    Distance radius = kInfDistance;
    NodeId nearest_landmark = kInvalidNode;
    std::unique_ptr<StagedSlice> staged;
  };
  // Every indexed node pays for one slot (40 bytes on LP64).
  static_assert(sizeof(PerNode) <= 40, "per-node slot outgrew its budget");

  struct ConstSlice {
    const NodeId* members;
    DistView dists;
  };
  /// A writable slice: its members, and its distances as entries
  /// [dist_offset, dist_offset + len) of `dists`.
  struct MutableSlice {
    NodeId* members;
    DistColumn* dists;
    std::size_t dist_offset;
  };

  ConstSlice slice(const PerNode& p) const {
    if (p.staged != nullptr) {
      return ConstSlice{p.staged->members.data(), p.staged->dists.view()};
    }
    const DistView dists = arena_dists_.view().subspan(p.offset, p.len);
    if (backing_ != nullptr) {
      return ConstSlice{mm_members_.data() + p.offset, dists};
    }
    return ConstSlice{arena_members_.data() + p.offset, dists};
  }
  MutableSlice mutable_slice(PerNode& p) {
    if (p.staged != nullptr) {
      return MutableSlice{p.staged->members.data(), &p.staged->dists, 0};
    }
    if (backing_ != nullptr) {
      // Writing through the mapping is a contract violation; mutators must
      // copy-on-write via stage_packed_copy() first.
      throw std::logic_error(
          "VicinityStore: mutable slice over a read-only mapping");
    }
    return MutableSlice{arena_members_.data() + p.offset, &arena_dists_,
                        p.offset};
  }

  /// Compacts every slice in slot order into `members`/`dists`, the
  /// distances at the narrowest width that holds them all.
  void gather(std::vector<NodeId>& members, DistColumn& dists) const;

  /// Slice index of member v of p's slice, or p.len when v is absent.
  static std::size_t index_of(const PerNode& p, const ConstSlice& s,
                              NodeId v) {
    std::size_t i = lower_bound_idx(s.members, 0, p.boundary_len, v);
    if (i < p.boundary_len && s.members[i] == v) return i;
    i = lower_bound_idx(s.members, p.boundary_len, p.len, v);
    return i < p.len && s.members[i] == v ? i : p.len;
  }

  /// walk_tree's step: the slice index of entry i's parent, p.len if none.
  static std::size_t parent_index(const PerNode& p, const ConstSlice& s,
                                  std::size_t i, const graph::Graph& g,
                                  Direction dir);

  /// Copy-on-write step for a mapped slot: copies p's slice out of the
  /// read-only backing into its slot-local staging buffers so in-place
  /// mutation (boundary-group rotation) can proceed. Slot-local, so safe
  /// under the SHARED role like any staged set().
  void stage_packed_copy(PerNode& p)
      VICINITY_REQUIRES_SHARED(mutation_role_);

  /// Branch-free lower bound on arr[lo, hi): first index with arr[i] >= v.
  static std::size_t lower_bound_idx(const NodeId* arr, std::size_t lo,
                                     std::size_t hi, NodeId v) {
    std::size_t n = hi - lo;
    const NodeId* base = arr + lo;
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (base[half - 1] < v) ? half : 0;
      n -= half;
    }
    return static_cast<std::size_t>(base - arr) +
           ((n == 1 && base[0] < v) ? 1 : 0);
  }

  /// Shared validation + slot indexing behind adopt_packed and
  /// adopt_packed_view: checks the slot table against the arena lengths
  /// (always) and, when `deep`, every member id plus the per-group sort and
  /// group disjointness; then rewrites slots_ and the totals.
  /// Leaves the arena storage untouched — the callers install it.
  void validate_and_index_packed(const PackedView& v, bool deep);

  /// Phantom mutation capability (see mutation_role()). mutable + copyable:
  /// the role carries no state, only a static identity per store object.
  mutable util::ExclusiveRole mutation_role_;

  std::vector<NodeId> slot_of_;  ///< node -> slot or kInvalidNode
  std::vector<PerNode> slots_;
  // Packed arena (parallel arrays). The distance column borrows the mapping
  // in zero-copy mode.
  std::vector<NodeId> arena_members_;
  DistColumn arena_dists_;
  // Zero-copy mode (adopt_packed_view): when backing_ is non-null the
  // arenas live in external read-only storage and the owned vectors above
  // are empty; pack() materializes and clears these.
  std::span<const NodeId> mm_members_;
  std::shared_ptr<const void> backing_;
  std::uint64_t wasted_entries_ = 0;  ///< dead arena entries (replaced slots)
  std::uint64_t staged_entries_ = 0;  ///< entries parked in staging buffers
  std::uint64_t staged_slots_ = 0;
  std::uint64_t total_entries_ = 0;
  std::uint64_t total_boundary_ = 0;
};

}  // namespace vicinity::core
