// Vicinity construction (paper §2.2, Definition 1).
//
// For a node u with vicinity radius r = d(u, ℓ(u)):
//   ball     B(u) = { v : d(u,v) < r }
//   vicinity Γ(u) = B(u) ∪ N(B(u))
//   boundary ∂Γ(u) = { v ∈ Γ(u) : some neighbor of v is outside Γ(u) }
//
// Unweighted graphs: one truncated BFS expanding levels < r discovers
// exactly Γ(u) = { v : d(u,v) <= r } with exact distances.
//
// Weighted graphs: a truncated Dijkstra settles the ball, marks
// Γ-candidates (ball + out-neighbors of ball), then keeps settling until
// every candidate is settled — stored distances are exact even when a
// shortest path to a shell node leaves the ball.
#pragma once

#include <cstdint>
#include <vector>

#include "core/landmarks.h"
#include "graph/graph.h"
#include "util/types.h"
#include "util/visit_stamp.h"

namespace vicinity::core {

struct VicinityMember {
  NodeId node;
  Distance dist;      ///< exact d(u, node) (directed: along Direction)
  bool in_ball;       ///< dist < radius
  bool on_boundary;   ///< member with a neighbor outside Γ(u)
};

struct Vicinity {
  NodeId origin = kInvalidNode;
  Distance radius = kInfDistance;       ///< d(u, ℓ(u)); 0 when u ∈ L
  NodeId nearest_landmark = kInvalidNode;
  std::vector<VicinityMember> members;  ///< settle order; empty when u ∈ L
  std::size_t ball_size = 0;
  std::size_t boundary_size = 0;
  std::uint64_t arcs_scanned = 0;       ///< construction work (for E7)
};

/// Reusable construction engine; one instance per thread.
class VicinityBuilder {
 public:
  /// direction selects out- or in-vicinities on directed graphs (kOut for
  /// sources, kIn for targets); ignored for undirected graphs.
  explicit VicinityBuilder(const graph::Graph& g,
                           Direction direction = Direction::kOut);

  /// Builds Γ(u) given the node's radius and nearest landmark, as computed
  /// by nearest_landmarks(). radius == 0 (u ∈ L) yields an empty vicinity
  /// per Definition 1. radius == kInfDistance (no reachable landmark)
  /// yields the whole reachable set.
  Vicinity build(NodeId u, Distance radius, NodeId nearest_landmark);

 private:
  Vicinity build_unweighted(NodeId u, Distance radius, NodeId lm);
  Vicinity build_weighted(NodeId u, Distance radius, NodeId lm);
  void mark_boundary(Vicinity& v);

  const graph::Graph& g_;
  Direction direction_;
  util::StampedArray<Distance> dist_;
  util::StampedSet in_gamma_;
  std::vector<NodeId> queue_;
  std::vector<std::pair<Distance, NodeId>> heap_;
  util::StampedSet candidate_;
};

}  // namespace vicinity::core
