#include "algo/bidirectional_dijkstra.h"

#include <algorithm>

namespace vicinity::algo {

namespace {

constexpr auto kHeapCmp = [](const std::pair<Distance, NodeId>& a,
                             const std::pair<Distance, NodeId>& b) {
  return a.first > b.first;
};

BidirResult run(const graph::Graph& g, BidirBfsScratch& sc, NodeId s, NodeId t,
                bool record_parents) {
  BidirResult res;
  if (s == t) {
    res.dist = 0;
    res.meeting_node = s;
    return res;
  }
  sc.ensure(g.num_nodes());
  sc.dist_f.reset();
  sc.dist_b.reset();
  if (record_parents) {
    sc.parent_f.reset();
    sc.parent_b.reset();
  }
  sc.heap_f.assign(1, {0, s});
  sc.heap_b.assign(1, {0, t});
  sc.dist_f.set(s, 0);
  sc.dist_b.set(t, 0);
  const bool weighted = g.weighted();

  Distance best = kInfDistance;
  NodeId best_meet = kInvalidNode;

  while (!sc.heap_f.empty() && !sc.heap_b.empty()) {
    // Standard termination: when the smallest keys on both sides already
    // sum to >= best, no undiscovered meeting can improve the answer.
    const Distance top_f = sc.heap_f.front().first;
    const Distance top_b = sc.heap_b.front().first;
    if (dist_add(top_f, top_b) >= best) break;

    const bool forward = top_f <= top_b;
    auto& heap = forward ? sc.heap_f : sc.heap_b;
    auto& dist_mine = forward ? sc.dist_f : sc.dist_b;
    auto& dist_other = forward ? sc.dist_b : sc.dist_f;
    auto& parent_mine = forward ? sc.parent_f : sc.parent_b;
    std::pop_heap(heap.begin(), heap.end(), kHeapCmp);
    const auto [du, u] = heap.back();
    heap.pop_back();
    if (du > dist_mine.get(u)) continue;  // stale: u was settled closer

    // Forward expands out-edges; backward expands in-edges.
    const auto nbrs = forward ? g.neighbors(u) : g.in_neighbors(u);
    const auto wts = weighted ? (forward ? g.weights(u) : g.in_weights(u))
                              : std::span<const Weight>{};
    res.arcs_scanned += nbrs.size();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      const Distance dv = dist_add(du, weighted ? wts[i] : Weight{1});
      if (dv < dist_mine.get_or(v, kInfDistance)) {
        dist_mine.set(v, dv);
        if (record_parents) parent_mine.set(v, u);
        heap.emplace_back(dv, v);
        std::push_heap(heap.begin(), heap.end(), kHeapCmp);
      }
      if (dist_other.is_set(v)) {
        const Distance total = dist_add(dv, dist_other.get(v));
        if (total < best) {
          best = total;
          best_meet = v;
        }
      }
    }
  }
  res.dist = best;
  res.meeting_node = best_meet;
  return res;
}

}  // namespace

BidirResult bidirectional_dijkstra_distance(const graph::Graph& g,
                                            BidirBfsScratch& scratch,
                                            NodeId s, NodeId t) {
  return run(g, scratch, s, t, /*record_parents=*/false);
}

std::vector<NodeId> bidirectional_dijkstra_path(const graph::Graph& g,
                                                BidirBfsScratch& scratch,
                                                NodeId s, NodeId t) {
  return scratch.path(s, t, run(g, scratch, s, t, /*record_parents=*/true));
}

}  // namespace vicinity::algo
