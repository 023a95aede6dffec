#include "algo/bidirectional_bfs.h"

#include <algorithm>

namespace vicinity::algo {

namespace {

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
  sc.frontier_f = {s};
  sc.frontier_b = {t};
  sc.dist_f.set(s, 0);
  sc.dist_b.set(t, 0);
  Distance depth_f = 0, depth_b = 0;

  Distance best = kInfDistance;
  NodeId best_meet = kInvalidNode;

  while (!sc.frontier_f.empty() && !sc.frontier_b.empty()) {
    // Lower bound on any path found from now on: expanding a side at depth d
    // discovers nodes at d+1, so the cheapest yet-unseen meeting costs
    // depth_f + depth_b + 1.
    if (dist_add(dist_add(depth_f, depth_b), 1) >= best) break;

    const bool forward = sc.frontier_f.size() <= sc.frontier_b.size();
    auto& frontier = forward ? sc.frontier_f : sc.frontier_b;
    auto& dist_mine = forward ? sc.dist_f : sc.dist_b;
    auto& dist_other = forward ? sc.dist_b : sc.dist_f;
    auto& parent_mine = forward ? sc.parent_f : sc.parent_b;

    sc.next.clear();
    for (const NodeId u : frontier) {
      // Forward expands out-edges; backward expands in-edges (so that
      // backward levels measure distance *to* t on directed graphs).
      const auto nbrs = forward ? g.neighbors(u) : g.in_neighbors(u);
      res.arcs_scanned += nbrs.size();
      const Distance du = dist_mine.get(u);
      for (const NodeId v : nbrs) {
        if (!dist_mine.is_set(v)) {
          dist_mine.set(v, du + 1);
          if (record_parents) parent_mine.set(v, u);
          sc.next.push_back(v);
          if (dist_other.is_set(v)) {
            const Distance total = dist_add(du + 1, dist_other.get(v));
            if (total < best) {
              best = total;
              best_meet = v;
            }
          }
        }
      }
    }
    frontier.swap(sc.next);
    (forward ? depth_f : depth_b) += 1;
  }
  res.dist = best;
  res.meeting_node = best_meet;
  return res;
}

}  // namespace

BidirResult bidirectional_bfs_distance(const graph::Graph& g,
                                       BidirBfsScratch& scratch, NodeId s,
                                       NodeId t) {
  return run(g, scratch, s, t, /*record_parents=*/false);
}

std::vector<NodeId> bidirectional_bfs_path(const graph::Graph& g,
                                           BidirBfsScratch& scratch, NodeId s,
                                           NodeId t) {
  return scratch.path(s, t, run(g, scratch, s, t, /*record_parents=*/true));
}

std::vector<NodeId> BidirBfsScratch::path(NodeId s, NodeId t,
                                          const BidirResult& met) const {
  std::vector<NodeId> out;
  if (met.dist == kInfDistance) return out;
  if (s == t) return {s};
  // Forward half: meeting node back to s.
  NodeId cur = met.meeting_node;
  while (cur != s) {
    out.push_back(cur);
    cur = parent_f.get(cur);
  }
  out.push_back(s);
  std::reverse(out.begin(), out.end());
  // Backward half: successor chain from meeting node to t.
  cur = met.meeting_node;
  while (cur != t) {
    cur = parent_b.get(cur);
    out.push_back(cur);
  }
  return out;
}

}  // namespace vicinity::algo
