#include "core/vicinity_store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace vicinity::core {

namespace detail {

namespace {

/// Clamped prefetch of arr[i + lookahead] (hardware prefetchers handle the
/// streams; this keeps the probe side warm across slice boundaries).
inline void prefetch_ahead(const NodeId* arr, std::size_t i, std::size_t n) {
  if (n != 0) __builtin_prefetch(arr + std::min(i + 16, n - 1));
}

}  // namespace

namespace {

template <typename A, typename B>
Distance merge_min(std::span<const NodeId> a_nodes, const A* a_dists,
                   std::span<const NodeId> b_nodes, const B* b_dists,
                   NodeId* witness) {
  Distance best = kInfDistance;
  NodeId w = kInvalidNode;
  const std::size_t na = a_nodes.size();
  const std::size_t nb = b_nodes.size();
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    prefetch_ahead(a_nodes.data(), i, na);
    prefetch_ahead(b_nodes.data(), j, nb);
    const NodeId x = a_nodes[i];
    const NodeId y = b_nodes[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      const Distance d = dist_add(decode(a_dists[i]), decode(b_dists[j]));
      if (d < best) {
        best = d;
        w = x;
      }
      ++i;
      ++j;
    }
  }
  if (witness != nullptr) *witness = w;
  return best;
}

template <typename A, typename B>
Distance gallop_min(std::span<const NodeId> a_nodes, const A* a_dists,
                    std::span<const NodeId> b_nodes, const B* b_dists,
                    NodeId* witness) {
  Distance best = kInfDistance;
  NodeId w = kInvalidNode;
  const std::size_t na = a_nodes.size();
  const std::size_t nb = b_nodes.size();
  const NodeId* b = b_nodes.data();
  std::size_t j = 0;
  for (std::size_t i = 0; i < na && j < nb; ++i) {
    const NodeId x = a_nodes[i];
    if (b[j] < x) {
      // Exponential search for the first b[k] >= x in b[j..nb), then a
      // binary search inside the bracketed run.
      std::size_t bound = 1;
      while (j + bound < nb && b[j + bound] < x) {
        __builtin_prefetch(b + std::min(j + (bound << 2), nb - 1));
        bound <<= 1;
      }
      const std::size_t lo = j + (bound >> 1) + 1;
      const std::size_t hi = std::min(nb, j + bound + 1);
      j = static_cast<std::size_t>(std::lower_bound(b + lo, b + hi, x) - b);
      if (j >= nb) break;
    }
    if (b[j] == x) {
      const Distance d = dist_add(decode(a_dists[i]), decode(b_dists[j]));
      if (d < best) {
        best = d;
        w = x;
      }
      ++j;
    }
  }
  if (witness != nullptr) *witness = w;
  return best;
}

/// Runs kernel(a_data, b_data) with both distance arrays at their stored
/// types: the one width dispatch of a call.
template <typename Kernel>
Distance with_widths(DistView a, DistView b, Kernel&& kernel) {
  return a.visit([&](auto ad) {
    return b.visit([&](auto bd) { return kernel(ad.data(), bd.data()); });
  });
}

}  // namespace

Distance merge_intersect_min(std::span<const NodeId> a_nodes,
                             DistView a_dists,
                             std::span<const NodeId> b_nodes,
                             DistView b_dists, NodeId* witness) {
  return with_widths(a_dists, b_dists, [&](const auto* ad, const auto* bd) {
    return merge_min(a_nodes, ad, b_nodes, bd, witness);
  });
}

Distance gallop_intersect_min(std::span<const NodeId> a_nodes,
                              DistView a_dists,
                              std::span<const NodeId> b_nodes,
                              DistView b_dists, NodeId* witness) {
  return with_widths(a_dists, b_dists, [&](const auto* ad, const auto* bd) {
    return gallop_min(a_nodes, ad, b_nodes, bd, witness);
  });
}

Distance intersect_sorted_min(std::span<const NodeId> a_nodes,
                              DistView a_dists,
                              std::span<const NodeId> b_nodes,
                              DistView b_dists, NodeId* witness) {
  if (a_nodes.empty() || b_nodes.empty()) {
    if (witness != nullptr) *witness = kInvalidNode;
    return kInfDistance;
  }
  // Both kernels meet the common nodes in ascending order whichever side
  // they iterate, so the witness does not depend on the choice.
  if (a_nodes.size() > b_nodes.size()) {
    return intersect_sorted_min(b_nodes, b_dists, a_nodes, a_dists, witness);
  }
  if (b_nodes.size() / a_nodes.size() >= kGallopSkew) {
    return gallop_intersect_min(a_nodes, a_dists, b_nodes, b_dists, witness);
  }
  return merge_intersect_min(a_nodes, a_dists, b_nodes, b_dists, witness);
}

}  // namespace detail

namespace {

inline void atomic_add(std::uint64_t& counter, std::uint64_t delta) {
  // Concurrent writers touch distinct slots, so plain accumulation would
  // race on the shared totals. Relaxed atomics; replacement applies the
  // delta against what the slot previously held.
  static_assert(sizeof(std::uint64_t) == 8);
  std::atomic_ref<std::uint64_t>(counter).fetch_add(delta,
                                                    std::memory_order_relaxed);
}

}  // namespace

VicinityStore::VicinityStore(NodeId num_nodes)
    : slot_of_(num_nodes, kInvalidNode) {}

void VicinityStore::prepare(std::span<const NodeId> nodes) {
  // One reservation keeps bulk prepare — the mapped-open hot path — to a
  // single allocation instead of repeated growth moves of the slot vector.
  slots_.reserve(slots_.size() + nodes.size());
  for (const NodeId u : nodes) {
    if (u >= slot_of_.size()) {
      throw std::out_of_range("VicinityStore::prepare: node out of range");
    }
    if (slot_of_[u] != kInvalidNode) continue;  // already registered
    slot_of_[u] = static_cast<NodeId>(slots_.size());
    slots_.emplace_back();
  }
}

void VicinityStore::set(NodeId u, const Vicinity& v) {
  if (!has(u)) throw std::logic_error("VicinityStore::set: node not prepared");
  if (v.origin != u) throw std::logic_error("VicinityStore::set: origin mismatch");
  for (const VicinityMember& m : v.members) {
    // kInvalidNode is the store's not-a-node sentinel (find() rejects it as
    // a probe), so it can never be a member.
    if (m.node == kInvalidNode) {
      throw std::invalid_argument(
          "VicinityStore::set: member is the invalid-node sentinel");
    }
  }
  PerNode& p = slots_[slot_of_[u]];
  const std::uint64_t old_entries = p.len;
  const std::uint64_t old_boundary = p.boundary_len;
  const std::size_t n = v.members.size();
  const bool narrow = std::ranges::all_of(v.members, [](const auto& m) {
    return fits_narrow(m.dist);
  });

  // Slice order: boundary group first, then interior, each ascending by
  // node — sorted once here, at build/repair time, so the query side only
  // ever merges.
  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (v.members[i].on_boundary) order.push_back(i);
  }
  const auto bcount = static_cast<std::uint32_t>(order.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!v.members[i].on_boundary) order.push_back(i);
  }
  const auto by_node = [&](std::uint32_t a, std::uint32_t b) {
    return v.members[a].node < v.members[b].node;
  };
  std::sort(order.begin(), order.begin() + bcount, by_node);
  std::sort(order.begin() + bcount, order.end(), by_node);

  if (p.staged == nullptr && n <= p.cap && backing_ == nullptr &&
      (narrow || !arena_dists_.narrow())) {
    // In-place replacement inside the existing arena region (the common
    // dynamic-repair case): no allocation. The cap - len slack left by a
    // shrink is dead arena space, so it counts toward the compaction
    // trigger (invariant: wasted_entries_ = fully dead regions + live
    // slots' slack); a later regrowth within cap takes the delta back.
    atomic_add(wasted_entries_, p.len - n);
  } else {
    // Stage the slice in its slot-local sub-arena; pack() stitches the
    // staged slots back into one contiguous arena later. The abandoned
    // arena region becomes reclaimable waste — its slack portion is
    // already counted, so only the live len is added here. A slice whose
    // distances need four bytes is staged too when the arena is byte-wide:
    // the arena widens at the next pack(), never under concurrent set()s.
    if (p.staged == nullptr) {
      if (p.cap > 0) atomic_add(wasted_entries_, p.len);
      p.cap = 0;
      atomic_add(staged_slots_, 1);
      p.staged = std::make_unique<StagedSlice>();
    } else {
      atomic_add(staged_entries_, std::uint64_t{0} - p.staged->members.size());
    }
    p.staged->members.resize(n);
    p.staged->dists = DistColumn(n, narrow);
    p.staged->parents.resize(n);
    atomic_add(staged_entries_, n);
  }
  const MutableSlice s = mutable_slice(p);
  for (std::size_t i = 0; i < n; ++i) {
    const VicinityMember& m = v.members[order[i]];
    s.members[i] = m.node;
    s.dists->set(s.dist_offset + i, m.dist);
    s.parents[i] = m.parent;
  }
  p.len = static_cast<std::uint32_t>(n);
  p.boundary_len = bcount;
  p.radius = v.radius;
  p.nearest_landmark = v.nearest_landmark;
  atomic_add(total_entries_, n - old_entries);
  atomic_add(total_boundary_, bcount - old_boundary);
}

Distance VicinityStore::intersect_min(const BoundaryView& iter, NodeId probe_u,
                                      std::uint32_t& lookups) const {
  lookups += static_cast<std::uint32_t>(iter.nodes.size());
  return intersect_witness(iter, probe_u).first;
}

std::pair<Distance, NodeId> VicinityStore::intersect_witness(
    const BoundaryView& iter, NodeId probe_u) const {
  const PerNode& p = slots_[slot_of_[probe_u]];
  const ConstSlice s = slice(p);
  const std::size_t blen = p.boundary_len;
  const std::size_t ilen = p.len - p.boundary_len;
  NodeId wb = kInvalidNode;
  NodeId wi = kInvalidNode;
  const Distance via_boundary = detail::intersect_sorted_min(
      iter.nodes, iter.dists, {s.members, blen}, s.dists.subspan(0, blen), &wb);
  const Distance via_interior = detail::intersect_sorted_min(
      iter.nodes, iter.dists, {s.members + blen, ilen},
      s.dists.subspan(blen, ilen), &wi);
  // A node sits in one group only; equal minima go to the smaller id.
  if (via_interior < via_boundary ||
      (via_interior == via_boundary && wi < wb)) {
    return {via_interior, wi};
  }
  return {via_boundary, wb};
}

double VicinityStore::intersect_cost(std::size_t iter_elems,
                                     NodeId probe_u) const {
  const auto a = static_cast<double>(iter_elems);
  if (a == 0.0) return a;
  const auto b = static_cast<double>(vicinity_size(probe_u));
  return std::min(a + b, a * std::log2(std::max(2.0, b)));
}

double VicinityStore::scan_probe_cost(std::size_t iter_elems,
                                      NodeId probe_u) const {
  const auto a = static_cast<double>(iter_elems);
  if (a == 0.0) return a;
  const auto b = static_cast<double>(vicinity_size(probe_u));
  return a * std::log2(std::max(2.0, b));
}

void VicinityStore::refresh_boundary_flag(NodeId u, NodeId member,
                                          const graph::Graph& g,
                                          Direction direction) {
  PerNode& p = slots_[slot_of_[u]];
  const ProbeResult e = find(u, member);
  if (!e.found) {
    throw std::logic_error("VicinityStore::refresh_boundary_flag: not a member");
  }
  bool on = false;
  if (e.dist >= p.radius) {  // ball members are interior by construction
    const auto nbrs = direction == Direction::kOut ? g.neighbors(member)
                                                   : g.in_neighbors(member);
    for (const NodeId y : nbrs) {
      if (!find(u, y).found) {
        on = true;
        break;
      }
    }
  }

  // Rotate the member between the boundary and interior groups of its
  // slice; both groups stay sorted. A slice still aliasing a read-only
  // mapping is copied into its slot-local staging buffers first
  // (copy-on-write); otherwise no allocation happens.
  if (backing_ != nullptr && p.staged == nullptr) stage_packed_copy(p);
  const MutableSlice s = mutable_slice(p);
  const std::size_t bpos = lower_bound_idx(s.members, 0, p.boundary_len,
                                           member);
  const bool present = bpos < p.boundary_len && s.members[bpos] == member;
  if (on == present) return;
  const auto rotate3 = [&](std::size_t first, std::size_t middle,
                           std::size_t last) {
    std::rotate(s.members + first, s.members + middle, s.members + last);
    s.dists->rotate(s.dist_offset + first, s.dist_offset + middle,
                    s.dist_offset + last);
    std::rotate(s.parents + first, s.parents + middle, s.parents + last);
  };
  if (on) {
    const std::size_t ipos =
        lower_bound_idx(s.members, p.boundary_len, p.len, member);
    rotate3(bpos, ipos, ipos + 1);  // member moves down to bpos
    ++p.boundary_len;
    atomic_add(total_boundary_, 1);
  } else {
    const std::size_t dst =
        lower_bound_idx(s.members, p.boundary_len, p.len, member);
    rotate3(bpos, bpos + 1, dst);  // member moves up to dst - 1
    --p.boundary_len;
    atomic_add(total_boundary_, std::uint64_t{0} - 1);
  }
}

void VicinityStore::stage_packed_copy(PerNode& p) {
  const ConstSlice s = slice(p);  // reads the mapped region
  auto staged = std::make_unique<StagedSlice>();
  staged->members.assign(s.members, s.members + p.len);
  staged->dists = DistColumn::copy_of(s.dists);
  staged->parents.assign(s.parents, s.parents + p.len);
  p.staged = std::move(staged);
  // The abandoned mapped region is dead weight like any replaced arena
  // slice; the usual staging accounting makes pack_if_needed eventually
  // materialize a heavily-mutated mapped store outright.
  if (p.cap > 0) atomic_add(wasted_entries_, p.len);
  p.cap = 0;
  atomic_add(staged_slots_, 1);
  atomic_add(staged_entries_, p.len);
}

void VicinityStore::gather(std::vector<NodeId>& members, DistColumn& dists,
                           std::vector<NodeId>& parents) const {
  const bool narrow = std::ranges::all_of(
      slots_, [&](const PerNode& p) { return fits_narrow(slice(p).dists); });
  members.clear();
  dists = DistColumn(0, narrow);
  parents.clear();
  members.reserve(total_entries_);
  dists.reserve(total_entries_);
  parents.reserve(total_entries_);
  for (const PerNode& p : slots_) {
    const ConstSlice s = slice(p);
    members.insert(members.end(), s.members, s.members + p.len);
    dists.append(s.dists);
    parents.insert(parents.end(), s.parents, s.parents + p.len);
  }
}

void VicinityStore::pack() {
  if (staged_slots_ == 0 && arena_members_.size() == total_entries_ &&
      backing_ == nullptr) {
    return;  // already contiguous, hole-free, slack-free and owned
  }
  std::vector<NodeId> members;
  DistColumn dists;
  std::vector<NodeId> parents;
  gather(members, dists, parents);
  std::uint64_t off = 0;
  for (PerNode& p : slots_) {
    p.offset = off;
    p.cap = p.len;
    p.staged.reset();
    off += p.len;
  }
  arena_members_ = std::move(members);
  arena_dists_ = std::move(dists);
  arena_parents_ = std::move(parents);
  // pack() IS materialization for a mapped store: every slice was just
  // copied into the owned arenas, so drop the external backing.
  mm_members_ = {};
  mm_parents_ = {};
  backing_.reset();
  wasted_entries_ = 0;
  staged_entries_ = 0;
  staged_slots_ = 0;
}

void VicinityStore::pack_if_needed() {
  const std::uint64_t loose = wasted_entries_ + staged_entries_;
  if (loose > std::max<std::uint64_t>(1024, total_entries_ / 4)) pack();
}

VicinityStore::PackedBlob VicinityStore::export_packed() const {
  PackedBlob blob;
  blob.radius.reserve(slots_.size());
  blob.nearest.reserve(slots_.size());
  blob.len.reserve(slots_.size());
  blob.boundary_len.reserve(slots_.size());
  for (const PerNode& p : slots_) {
    blob.radius.push_back(p.radius);
    blob.nearest.push_back(p.nearest_landmark);
    blob.len.push_back(p.len);
    blob.boundary_len.push_back(p.boundary_len);
  }
  gather(blob.members, blob.dists, blob.parents);
  return blob;
}

void VicinityStore::validate_and_index_packed(const PackedView& v,
                                              bool deep) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("oracle index: packed store: ") +
                             what);
  };
  const std::size_t nslots = slots_.size();
  if (v.radius.size() != nslots || v.nearest.size() != nslots ||
      v.len.size() != nslots || v.boundary_len.size() != nslots) {
    fail("slot table length mismatch");
  }
  std::uint64_t total = 0;
  for (const std::uint32_t len : v.len) total += len;
  if (v.members.size() != total || v.dists.size() != total ||
      v.parents.size() != total) {
    fail("arena blob length mismatch");
  }
  const auto n = static_cast<NodeId>(slot_of_.size());
  std::uint64_t off = 0;
  std::uint64_t boundary_total = 0;
  for (std::size_t slot = 0; slot < nslots; ++slot) {
    PerNode& p = slots_[slot];
    const std::uint32_t len = v.len[slot];
    const std::uint32_t blen = v.boundary_len[slot];
    if (blen > len) fail("boundary longer than slice");
    if (v.nearest[slot] >= n && v.nearest[slot] != kInvalidNode) {
      fail("nearest landmark out of range");
    }
    if (deep) {
      // Both groups must be strictly ascending (binary search + merge rely
      // on it), with ids/parents in range.
      for (std::uint32_t i = 0; i < len; ++i) {
        const NodeId m = v.members[off + i];
        const NodeId par = v.parents[off + i];
        if (m >= n) fail("member out of range");
        if (par >= n && par != kInvalidNode) fail("parent out of range");
        if (i != 0 && i != blen && v.members[off + i - 1] >= m) {
          fail("slice group not strictly sorted");
        }
      }
      // ... and disjoint: a member in both groups would make find() and
      // intersect_min() see two entries for one node.
      for (std::uint32_t bi = 0, ii = blen; bi < blen && ii < len;) {
        const NodeId bv = v.members[off + bi];
        const NodeId iv = v.members[off + ii];
        if (bv < iv) {
          ++bi;
        } else if (iv < bv) {
          ++ii;
        } else {
          fail("member in both boundary and interior groups");
        }
      }
    }
    p.offset = off;
    p.len = len;
    p.cap = len;
    p.boundary_len = blen;
    p.staged.reset();
    p.radius = v.radius[slot];
    p.nearest_landmark = v.nearest[slot];
    off += len;
    boundary_total += blen;
  }
  wasted_entries_ = 0;
  staged_entries_ = 0;
  staged_slots_ = 0;
  total_entries_ = total;
  total_boundary_ = boundary_total;
}

void VicinityStore::adopt_packed(PackedBlob&& blob) {
  const PackedView view{blob.radius, blob.nearest, blob.len,
                        blob.boundary_len, blob.members, blob.dists.view(),
                        blob.parents};
  validate_and_index_packed(view, /*deep=*/true);
  arena_members_ = std::move(blob.members);
  arena_dists_ = std::move(blob.dists);
  arena_parents_ = std::move(blob.parents);
  mm_members_ = {};
  mm_parents_ = {};
  backing_.reset();
}

void VicinityStore::adopt_packed_view(const PackedView& view,
                                      std::shared_ptr<const void> backing,
                                      bool deep_validate) {
  validate_and_index_packed(view, deep_validate);
  std::vector<NodeId>().swap(arena_members_);
  std::vector<NodeId>().swap(arena_parents_);
  arena_dists_ = DistColumn::borrow(view.dists);
  mm_members_ = view.members;
  mm_parents_ = view.parents;
  backing_ = std::move(backing);
}

VicinityStore::PackedView VicinityStore::export_view(
    PackedBlob& scratch) const {
  scratch.radius.clear();
  scratch.nearest.clear();
  scratch.len.clear();
  scratch.boundary_len.clear();
  scratch.radius.reserve(slots_.size());
  scratch.nearest.reserve(slots_.size());
  scratch.len.reserve(slots_.size());
  scratch.boundary_len.reserve(slots_.size());
  // The arenas can be referenced wholesale only when the slices tile them
  // contiguously in slot order with no staging, holes or slack.
  bool contiguous = staged_slots_ == 0 && wasted_entries_ == 0;
  std::uint64_t expect = 0;
  for (const PerNode& p : slots_) {
    scratch.radius.push_back(p.radius);
    scratch.nearest.push_back(p.nearest_landmark);
    scratch.len.push_back(p.len);
    scratch.boundary_len.push_back(p.boundary_len);
    if (contiguous && (p.staged != nullptr || p.offset != expect)) {
      contiguous = false;
    }
    expect += p.len;
  }
  const std::size_t arena_size =
      backing_ != nullptr ? mm_members_.size() : arena_members_.size();
  PackedView v{scratch.radius, scratch.nearest, scratch.len,
               scratch.boundary_len, {}, {}, {}};
  if (contiguous && expect == arena_size) {
    if (backing_ != nullptr) {
      v.members = mm_members_;
      v.parents = mm_parents_;
    } else {
      v.members = arena_members_;
      v.parents = arena_parents_;
    }
    v.dists = arena_dists_.view();
    return v;
  }
  gather(scratch.members, scratch.dists, scratch.parents);
  v.members = scratch.members;
  v.dists = scratch.dists.view();
  v.parents = scratch.parents;
  return v;
}

bool VicinityStore::narrow() const {
  return arena_dists_.narrow() &&
         std::ranges::all_of(slots_, [](const PerNode& p) {
           return p.staged == nullptr || p.staged->dists.narrow();
         });
}

std::uint64_t VicinityStore::memory_bytes() const {
  std::uint64_t bytes = slot_of_.size() * sizeof(NodeId);
  bytes += arena_members_.capacity() * sizeof(NodeId) +
           arena_dists_.heap_bytes() +
           arena_parents_.capacity() * sizeof(NodeId);
  bytes += slots_.size() * sizeof(PerNode);
  for (const PerNode& p : slots_) {
    if (p.staged == nullptr) continue;
    bytes += sizeof(StagedSlice) +
             p.staged->members.capacity() * sizeof(NodeId) +
             p.staged->dists.heap_bytes() +
             p.staged->parents.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace vicinity::core
