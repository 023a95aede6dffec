// Bidirectional Dijkstra — the weighted counterpart of the paper's
// bidirectional-BFS comparator [4].
//
// It runs over the same caller-owned scratch as bidirectional BFS
// (BidirBfsScratch, which carries the two heaps), so one per-thread
// QueryContext serves either search; BidirectionalDijkstraRunner bundles
// graph + scratch for single-threaded callers.
#pragma once

#include <vector>

#include "algo/bidirectional_bfs.h"
#include "graph/graph.h"
#include "util/types.h"

namespace vicinity::algo {

/// Exact distance s->t using caller-owned scratch (weights default to 1 on
/// unweighted graphs). On directed graphs the backward search uses
/// in-edges. Thread-safe as long as each thread owns its scratch.
BidirResult bidirectional_dijkstra_distance(const graph::Graph& g,
                                            BidirBfsScratch& scratch,
                                            NodeId s, NodeId t);

/// Shortest path inclusive of endpoints; empty when unreachable.
std::vector<NodeId> bidirectional_dijkstra_path(const graph::Graph& g,
                                                BidirBfsScratch& scratch,
                                                NodeId s, NodeId t);

/// Convenience wrapper owning its scratch — the single-threaded API used by
/// benches and tests.
class BidirectionalDijkstraRunner {
 public:
  explicit BidirectionalDijkstraRunner(const graph::Graph& g) : g_(g) {
    scratch_.ensure(g.num_nodes());
  }

  BidirResult distance(NodeId s, NodeId t) {
    return bidirectional_dijkstra_distance(g_, scratch_, s, t);
  }

 private:
  const graph::Graph& g_;
  BidirBfsScratch scratch_;
};

}  // namespace vicinity::algo
