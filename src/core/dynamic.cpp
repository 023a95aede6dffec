#include "core/dynamic.h"

#include <algorithm>
#include <utility>

namespace vicinity::core {

const char* to_string(UpdateKind k) {
  switch (k) {
    case UpdateKind::kInsert: return "insert";
    case UpdateKind::kDelete: return "delete";
  }
  return "?";
}

namespace detail {

namespace {

/// Binary min-heap of (distance, node) — the lazy-deletion pattern every
/// Dijkstra in the repo uses; repair frontiers are tiny, so no bucket queue.
using Frontier = std::vector<std::pair<Distance, NodeId>>;

constexpr auto kHeapCmp = [](const std::pair<Distance, NodeId>& x,
                             const std::pair<Distance, NodeId>& y) {
  return x.first > y.first;
};

void heap_push(Frontier& h, Distance d, NodeId u) {
  h.emplace_back(d, u);
  std::push_heap(h.begin(), h.end(), kHeapCmp);
}

std::pair<Distance, NodeId> heap_pop(Frontier& h) {
  std::pop_heap(h.begin(), h.end(), kHeapCmp);
  const auto top = h.back();
  h.pop_back();
  return top;
}

/// Writes one entry of a dense distance field: a plain array (the nearest-
/// landmark field) or a landmark row, which may widen its column first.
void write(std::span<Distance> dist, NodeId x, Distance d) { dist[x] = d; }
void write(const DistRow& dist, NodeId x, Distance d) { dist.set(x, d); }

/// Propagates a decrease-only relaxation: `seeds` distances were already
/// lowered in `dist`; improvements spread along out-arcs (use_in_arcs =
/// false) or in-arcs. on_improve(node, via) fires once per further lowered
/// node, after its dist slot was written.
template <typename Dist, typename OnImprove>
void decrease_relax(const graph::Graph& g, bool use_in_arcs, const Dist& dist,
                    std::span<const NodeId> seeds, OnImprove&& on_improve) {
  Frontier heap;
  for (const NodeId s : seeds) heap_push(heap, dist[s], s);
  const bool weighted = g.weighted();
  while (!heap.empty()) {
    const auto [dx, x] = heap_pop(heap);
    if (dx > dist[x]) continue;  // stale entry
    const auto nbrs = use_in_arcs ? g.in_neighbors(x) : g.neighbors(x);
    const auto wts = weighted
                         ? (use_in_arcs ? g.in_weights(x) : g.weights(x))
                         : std::span<const Weight>{};
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId y = nbrs[i];
      const Distance dy = dist_add(dx, weighted ? wts[i] : Weight{1});
      if (dy < dist[y]) {
        write(dist, y, dy);
        on_improve(y, x);
        heap_push(heap, dy, y);
      }
    }
  }
}

}  // namespace

void collect_candidates(const graph::Graph& g,
                        std::span<const Distance> radius_of, NodeId endpoint,
                        Direction dir, Distance slack,
                        util::FlatHashMap<NodeId, Distance>& dist_out,
                        std::size_t& scanned) {
  // Γ_dir(x) reacts to `endpoint` only if the dir-distance x -> endpoint is
  // within x's (slack-padded) radius, so candidates are enumerated from
  // `endpoint` along the opposite arc set. Scratch is hashed, not dense:
  // the pruned region is ~|Γ|-sized, and updates must not pay O(n).
  const bool use_in_arcs = (dir == Direction::kOut);
  const bool weighted = g.weighted();
  auto expandable = [&](NodeId x, Distance dx) {
    return dx <= dist_add(radius_of[x], slack);
  };

  if (!weighted) {
    std::vector<NodeId> queue{endpoint};
    dist_out.insert_or_assign(endpoint, 0);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      const Distance dx = *dist_out.find(x);
      ++scanned;
      if (!expandable(x, dx)) continue;
      const auto nbrs = use_in_arcs ? g.in_neighbors(x) : g.neighbors(x);
      for (const NodeId y : nbrs) {
        if (dist_out.find(y) == nullptr) {
          dist_out.insert_or_assign(y, dx + 1);
          queue.push_back(y);
        }
      }
    }
    return;
  }

  Frontier heap;
  util::FlatHashSet<NodeId> settled(256);
  dist_out.insert_or_assign(endpoint, 0);
  heap_push(heap, 0, endpoint);
  while (!heap.empty()) {
    const auto [dx, x] = heap_pop(heap);
    if (!settled.insert(x)) continue;
    ++scanned;
    if (!expandable(x, dx)) continue;
    const auto nbrs = use_in_arcs ? g.in_neighbors(x) : g.neighbors(x);
    const auto wts = use_in_arcs ? g.in_weights(x) : g.weights(x);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId y = nbrs[i];
      const Distance dy = dist_add(dx, wts[i]);
      const Distance* cur = dist_out.find(y);
      if (cur == nullptr || dy < *cur) {
        dist_out.insert_or_assign(y, dy);
        heap_push(heap, dy, y);
      }
    }
  }
}

AffectedSets decide_affected(const graph::Graph& g, const VicinityStore& store,
                             std::span<const Distance> radius_of,
                             UpdateKind kind, Direction dir, NodeId a,
                             NodeId b, Weight w,
                             const util::FlatHashMap<NodeId, Distance>& from_a,
                             const util::FlatHashMap<NodeId, Distance>& from_b) {
  const bool weighted = g.weighted();
  const bool directed = g.directed();
  // mark_boundary() scans out-arcs for out-vicinities and in-arcs for
  // in-vicinities, so on directed graphs only one endpoint of the arc
  // a -> b gains/loses a scanned neighbor: a for Γ_out, b for Γ_in.
  const NodeId flag_endpoint = (!directed || dir == Direction::kOut) ? a : b;
  // Weighted-delete distance changes route through old shortest paths to
  // members, whose length is bounded by radius + one (pre-mutation) arc.
  const Distance slack = weighted ? g.max_weight() : 0;
  // Weighted-insert improvements matter up to radius + one POST-insert arc.
  const Distance islack = weighted ? std::max(slack, w) : 0;

  AffectedSets out;
  util::FlatHashSet<NodeId> seen(from_a.size() + from_b.size());
  auto classify = [&](NodeId x) {
    if (!seen.insert(x) || !store.has(x)) return;
    const Distance* pa = from_a.find(x);
    const Distance* pb = from_b.find(x);
    const Distance da = pa != nullptr ? *pa : kInfDistance;
    const Distance db = pb != nullptr ? *pb : kInfDistance;
    const Distance r = radius_of[x];
    if (r == 0) return;  // landmark: Γ is empty by Definition 1

    bool rebuild = false;
    if (kind == UpdateKind::kInsert) {
      // A strict improvement that enters the padded radius changes stored
      // distances/members; on weighted graphs an endpoint inside the ball
      // additionally pulls the other endpoint into N(B) regardless of w.
      if (!directed || dir == Direction::kOut) {
        rebuild |= dist_add(da, w) < db && dist_add(da, w) <= dist_add(r, islack);
        if (weighted) rebuild |= da < r;
      }
      if (!directed || dir == Direction::kIn) {
        rebuild |= dist_add(db, w) < da && dist_add(db, w) <= dist_add(r, islack);
        if (weighted) rebuild |= db < r;
      }
    } else {
      // Deleting an edge changes distances inside Γ(x) only if it lay on an
      // old shortest path within the padded radius — both endpoints in
      // reach; weighted membership (N(B) adjacency) additionally depends on
      // ball endpoints.
      if (weighted) {
        rebuild = da <= dist_add(r, slack) && db <= dist_add(r, slack);
        if (!directed || dir == Direction::kOut) rebuild |= da < r;
        if (!directed || dir == Direction::kIn) rebuild |= db < r;
      } else {
        rebuild = da <= r && db <= r;  // both members (unweighted Γ = {d<=r})
      }
    }
    if (rebuild) {
      out.rebuild.push_back(x);
      return;
    }
    // No structural change: only a boundary flag can flip, for an endpoint
    // that is a member whose (gained or lost) neighbor lies outside.
    auto consider_patch = [&](NodeId e, NodeId o) {
      if (store.find(x, e).found && !store.find(x, o).found) {
        out.flag_patches.emplace_back(x, e);
      }
    };
    if (!directed) {
      consider_patch(a, b);
      consider_patch(b, a);
    } else {
      consider_patch(flag_endpoint, flag_endpoint == a ? b : a);
    }
  };
  from_a.for_each([&](NodeId x, Distance) { classify(x); });
  from_b.for_each([&](NodeId x, Distance) { classify(x); });
  std::sort(out.rebuild.begin(), out.rebuild.end());
  std::sort(out.flag_patches.begin(), out.flag_patches.end());
  return out;
}

std::vector<NodeId> repair_nearest_insert(const graph::Graph& g,
                                          NearestLandmarkInfo& info, NodeId a,
                                          NodeId b, Weight w,
                                          Direction direction) {
  // nearest_landmarks() grows kOut fields backwards along in-arcs; repair
  // relaxes the same way. For kOut the new arc a -> b improves a via b; for
  // kIn it improves b via a; undirected edges can improve either endpoint.
  const bool use_in_arcs = (direction == Direction::kOut);
  std::vector<NodeId> changed;
  util::FlatHashSet<NodeId> changed_set(64);
  auto note = [&](NodeId x) {
    if (changed_set.insert(x)) changed.push_back(x);
  };

  std::vector<NodeId> seeds;
  auto seed = [&](NodeId to, NodeId via) {
    const Distance cand = dist_add(info.dist[via], w);
    if (cand < info.dist[to]) {
      info.dist[to] = cand;
      info.landmark[to] = info.landmark[via];
      note(to);
      seeds.push_back(to);
    }
  };
  if (!g.directed()) {
    seed(a, b);
    seed(b, a);
  } else if (use_in_arcs) {
    seed(a, b);
  } else {
    seed(b, a);
  }
  if (seeds.empty()) return changed;

  decrease_relax(g, use_in_arcs, std::span<Distance>(info.dist), seeds,
                 [&](NodeId y, NodeId via) {
                   info.landmark[y] = info.landmark[via];
                   note(y);
                 });
  return changed;
}

std::vector<NodeId> repair_nearest_delete(
    const graph::Graph& g, const LandmarkSet& landmarks,
    NearestLandmarkInfo& info, NodeId a, NodeId b, Weight w,
    Direction direction, std::vector<NodeId>* assignment_only_changed) {
  const bool use_in_arcs = (direction == Direction::kOut);

  // Tightness check only (no alternative-support refinement): even when
  // the min-distance field survives through another support, the LANDMARK
  // ASSIGNMENT reached through the deleted edge can go stale — info.dist
  // would stay the true d(x, L) while info.landmark[x] names a landmark
  // that no longer attains it, silently breaking the kLandmarkEstimate
  // upper-bound d(s, l(s)) + d(l(s), t). A tight edge therefore always
  // pays the full multi-source resweep, which re-derives both fields.
  bool tight;
  if (!g.directed()) {
    tight = info.dist[a] == dist_add(info.dist[b], w) ||
            info.dist[b] == dist_add(info.dist[a], w);
  } else if (use_in_arcs) {
    // d(u -> L): the arc a -> b only ever shortened a.
    tight = info.dist[a] == dist_add(info.dist[b], w);
  } else {
    tight = info.dist[b] == dist_add(info.dist[a], w);
  }
  if (!tight) return {};

  NearestLandmarkInfo fresh = nearest_landmarks(g, landmarks, direction);
  std::vector<NodeId> changed;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    if (fresh.dist[x] != info.dist[x]) {
      changed.push_back(x);
    } else if (assignment_only_changed != nullptr &&
               fresh.landmark[x] != info.landmark[x]) {
      assignment_only_changed->push_back(x);
    }
  }
  info = std::move(fresh);
  return changed;
}

void merge_radius_changes(AffectedSets& sets,
                          std::span<const NodeId> radius_changed,
                          util::FlatHashSet<NodeId>& rebuild_set) {
  for (const NodeId x : sets.rebuild) rebuild_set.insert(x);
  bool resort = false;
  for (const NodeId x : radius_changed) {
    if (rebuild_set.insert(x)) {
      sets.rebuild.push_back(x);
      resort = true;
    }
  }
  if (resort) std::sort(sets.rebuild.begin(), sets.rebuild.end());
}

std::size_t relax_row(const graph::Graph& g, bool use_in_arcs, DistRow dist,
                      std::span<const NodeId> seeds) {
  std::size_t lowered = 0;
  decrease_relax(g, use_in_arcs, dist, seeds,
                 [&](NodeId, NodeId) { ++lowered; });
  return lowered;
}

std::size_t repair_row_delete(const graph::Graph& g, bool use_in_arcs,
                              DistRow dist, NodeId a, NodeId b) {
  const bool weighted = g.weighted();
  // "Upstream" arcs define dist[x] (x's potential supports); "downstream"
  // arcs are the nodes x in turn supports.
  auto upstream = [&](NodeId x) {
    return use_in_arcs ? g.neighbors(x) : g.in_neighbors(x);
  };
  auto upstream_w = [&](NodeId x) {
    return use_in_arcs ? g.weights(x) : g.in_weights(x);
  };
  auto downstream = [&](NodeId x) {
    return use_in_arcs ? g.in_neighbors(x) : g.neighbors(x);
  };
  auto downstream_w = [&](NodeId x) {
    return use_in_arcs ? g.in_weights(x) : g.weights(x);
  };

  const NodeId e = use_in_arcs ? a : b;  // endpoint the arc supported
  if (dist[e] == 0 || dist[e] == kInfDistance) return 0;

  // Phase 1: the affected set — nodes whose every tight support chain runs
  // through the deleted arc. `region` maps each to its index in `affected`
  // and doubles as the membership marker; dist[] keeps its old values
  // until the end, so tightness tests read the pre-delete shortest-path
  // DAG.
  util::FlatHashMap<NodeId, std::uint32_t> region(64);
  // A tight support that is not itself affected.
  auto has_support = [&](NodeId x) {
    return tight_support(g, use_in_arcs, dist, x, [&](NodeId y) {
             return region.find(y) != nullptr;
           }) != kInvalidNode;
  };
  if (has_support(e)) return 0;  // the arc was not load-bearing
  std::vector<NodeId> affected{e};
  region.insert_or_assign(e, 0);
  for (std::size_t head = 0; head < affected.size(); ++head) {
    const NodeId x = affected[head];
    const auto downs = downstream(x);
    const auto dw = weighted ? downstream_w(x) : std::span<const Weight>{};
    for (std::size_t i = 0; i < downs.size(); ++i) {
      const NodeId z = downs[i];
      if (region.find(z) != nullptr) continue;
      if (dist[z] == 0 || dist[z] == kInfDistance) continue;
      if (dist[z] != dist_add(dist[x], weighted ? dw[i] : Weight{1})) {
        continue;  // x never supported z
      }
      if (!has_support(z)) {
        region.insert_or_assign(z, static_cast<std::uint32_t>(affected.size()));
        affected.push_back(z);
      }
    }
  }

  // Phase 2: re-settle the affected region from its unaffected rim into
  // `fresh` (parallel to `affected`).
  std::vector<Distance> fresh(affected.size(), kInfDistance);
  Frontier heap;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    Distance best = kInfDistance;
    const NodeId x = affected[k];
    const auto ups = upstream(x);
    const auto uw = weighted ? upstream_w(x) : std::span<const Weight>{};
    for (std::size_t i = 0; i < ups.size(); ++i) {
      const NodeId y = ups[i];
      if (region.find(y) != nullptr) continue;
      best = std::min(best, dist_add(dist[y], weighted ? uw[i] : Weight{1}));
    }
    fresh[k] = best;
    if (best != kInfDistance) heap_push(heap, best, x);
  }
  while (!heap.empty()) {
    const auto [dx, x] = heap_pop(heap);
    if (dx > fresh[*region.find(x)]) continue;
    const auto downs = downstream(x);
    const auto dw = weighted ? downstream_w(x) : std::span<const Weight>{};
    for (std::size_t i = 0; i < downs.size(); ++i) {
      const std::uint32_t* k = region.find(downs[i]);
      if (k == nullptr) continue;  // rim is already final
      const Distance nd = dist_add(dx, weighted ? dw[i] : Weight{1});
      if (nd < fresh[*k]) {
        fresh[*k] = nd;
        heap_push(heap, nd, downs[i]);
      }
    }
  }

  // Every new value is known: write the region (the first value above 254
  // widens a byte-wide row's column).
  std::size_t changed = 0;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    if (dist[affected[k]] == fresh[k]) continue;
    ++changed;
    dist.set(affected[k], fresh[k]);
  }
  return changed;
}

}  // namespace detail

}  // namespace vicinity::core
