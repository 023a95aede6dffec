// Bidirectional BFS — the paper's "state-of-the-art shortest path
// algorithm" comparator [4] for unweighted graphs (Table 3).
//
// Expands the smaller frontier each round; terminates when the next
// combined depth can no longer improve the best meeting distance. Uses
// stamped scratch so per-query cost is proportional to the explored region,
// not to n.
//
// The scratch is a separate, caller-owned object (BidirBfsScratch) so that
// concurrent query servers can keep one per worker thread against a single
// shared read-only graph; BidirectionalBfsRunner bundles graph + scratch
// for single-threaded callers.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/types.h"
#include "util/visit_stamp.h"

namespace vicinity::algo {

struct BidirResult {
  Distance dist = kInfDistance;
  NodeId meeting_node = kInvalidNode;
  std::uint64_t arcs_scanned = 0;
};

/// Per-thread mutable state for bidirectional BFS, and for bidirectional
/// Dijkstra (algo/bidirectional_dijkstra.h), which adds the two heaps.
/// Sized lazily on first use; reusable across queries and across graphs of
/// the same node count. Never shared between threads.
struct BidirBfsScratch {
  void ensure(std::size_t n) {
    if (dist_f.size() != n) {
      dist_f.resize(n);
      dist_b.resize(n);
      parent_f.resize(n);
      parent_b.resize(n);
    }
  }

  std::size_t memory_bytes() const {
    return dist_f.memory_bytes() + dist_b.memory_bytes() +
           parent_f.memory_bytes() + parent_b.memory_bytes() +
           (frontier_f.capacity() + frontier_b.capacity() + next.capacity()) *
               sizeof(NodeId) +
           (heap_f.capacity() + heap_b.capacity()) *
               sizeof(std::pair<Distance, NodeId>);
  }

  /// The s..t path through a search's meeting node, read off the parents
  /// the search recorded; empty when it found none.
  std::vector<NodeId> path(NodeId s, NodeId t, const BidirResult& met) const;

  // Forward (from s) and backward (from t) scratch.
  util::StampedArray<Distance> dist_f, dist_b;
  util::StampedArray<NodeId> parent_f, parent_b;
  std::vector<NodeId> frontier_f, frontier_b, next;
  std::vector<std::pair<Distance, NodeId>> heap_f, heap_b;
};

/// Exact distance s->t using caller-owned scratch. On directed graphs the
/// backward search uses in-edges, so results equal full forward BFS.
/// Thread-safe as long as each thread owns its scratch: the graph is only
/// read.
BidirResult bidirectional_bfs_distance(const graph::Graph& g,
                                       BidirBfsScratch& scratch, NodeId s,
                                       NodeId t);

/// Shortest path inclusive of endpoints; empty when unreachable.
std::vector<NodeId> bidirectional_bfs_path(const graph::Graph& g,
                                           BidirBfsScratch& scratch, NodeId s,
                                           NodeId t);

/// Convenience wrapper owning its scratch — the single-threaded API used by
/// benches and tests.
class BidirectionalBfsRunner {
 public:
  explicit BidirectionalBfsRunner(const graph::Graph& g) : g_(g) {
    scratch_.ensure(g.num_nodes());
  }

  BidirResult distance(NodeId s, NodeId t) {
    return bidirectional_bfs_distance(g_, scratch_, s, t);
  }

  std::vector<NodeId> path(NodeId s, NodeId t) {
    return bidirectional_bfs_path(g_, scratch_, s, t);
  }

 private:
  const graph::Graph& g_;
  BidirBfsScratch scratch_;
};

}  // namespace vicinity::algo
