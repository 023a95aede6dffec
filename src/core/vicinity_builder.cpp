#include "core/vicinity_builder.h"

#include <algorithm>

namespace vicinity::core {

VicinityBuilder::VicinityBuilder(const graph::Graph& g, Direction direction)
    : g_(g),
      direction_(direction),
      dist_(g.num_nodes()),
      in_gamma_(g.num_nodes()),
      candidate_(g.num_nodes()) {}

Vicinity VicinityBuilder::build(NodeId u, Distance radius,
                                NodeId nearest_landmark) {
  Vicinity v;
  v.origin = u;
  v.radius = radius;
  v.nearest_landmark = nearest_landmark;
  if (radius == 0) return v;  // u ∈ L: B(u) = ∅, Γ(u) = ∅ (Definition 1)
  if (!g_.weighted()) {
    v = build_unweighted(u, radius, nearest_landmark);
  } else {
    v = build_weighted(u, radius, nearest_landmark);
  }
  mark_boundary(v);
  return v;
}

Vicinity VicinityBuilder::build_unweighted(NodeId u, Distance radius,
                                           NodeId lm) {
  Vicinity v;
  v.origin = u;
  v.radius = radius;
  v.nearest_landmark = lm;

  dist_.reset();
  queue_.clear();
  dist_.set(u, 0);
  queue_.push_back(u);
  // Expanding every node at distance < radius discovers exactly
  // Γ(u) = { v : d(u,v) <= radius } (each level-r node has a level-(r-1)
  // parent in the ball). Discovery order is BFS order, so distances are
  // exact at first touch.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId x = queue_[head];
    const Distance dx = dist_.get(x);
    if (dx >= radius) continue;  // shell nodes are recorded, not expanded
    const auto nbrs =
        direction_ == Direction::kOut ? g_.neighbors(x) : g_.in_neighbors(x);
    v.arcs_scanned += nbrs.size();
    for (const NodeId y : nbrs) {
      if (!dist_.is_set(y)) {
        dist_.set(y, dx + 1);
        queue_.push_back(y);
      }
    }
  }

  v.members.reserve(queue_.size());
  for (const NodeId x : queue_) {
    const Distance dx = dist_.get(x);
    const bool ball = dx < radius;
    v.members.push_back(VicinityMember{x, dx, ball, false});
    if (ball) ++v.ball_size;
  }
  return v;
}

Vicinity VicinityBuilder::build_weighted(NodeId u, Distance radius,
                                         NodeId lm) {
  Vicinity v;
  v.origin = u;
  v.radius = radius;
  v.nearest_landmark = lm;

  dist_.reset();
  candidate_.reset();
  heap_.clear();
  auto cmp = [](const auto& a, const auto& b) { return a.first > b.first; };

  dist_.set(u, 0);
  heap_.emplace_back(0, u);
  candidate_.insert(u);
  std::size_t candidates_total = 1;
  std::size_t candidates_settled = 0;
  bool ball_complete = false;

  // Dijkstra keeps settling (including non-members, whose shortest paths
  // may re-enter the shell) until every Γ-candidate is settled; settled
  // distances are final, so stored entries are exact.
  util::StampedSet& settled = in_gamma_;  // reuse scratch; refilled later
  settled.reset();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    const auto [dx, x] = heap_.back();
    heap_.pop_back();
    if (settled.contains(x)) continue;
    settled.insert(x);

    const bool in_ball = dx < radius;
    if (!in_ball) ball_complete = true;  // keys are non-decreasing
    if (in_ball) {
      ++candidates_settled;  // every ball node is a candidate (set below or at u)
      v.members.push_back(VicinityMember{x, dx, true, false});
      ++v.ball_size;
    } else if (candidate_.contains(x)) {
      ++candidates_settled;
      v.members.push_back(VicinityMember{x, dx, false, false});
    }

    if (ball_complete && candidates_settled == candidates_total) break;

    const auto nbrs =
        direction_ == Direction::kOut ? g_.neighbors(x) : g_.in_neighbors(x);
    const auto wts =
        direction_ == Direction::kOut ? g_.weights(x) : g_.in_weights(x);
    v.arcs_scanned += nbrs.size();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId y = nbrs[i];
      if (in_ball && candidate_.insert(y)) {
        // Neighbor of a ball node: member of N(B(u)) ⊆ Γ(u).
        if (!settled.contains(y)) {
          ++candidates_total;
        } else {
          // Already settled before being identified as a candidate (can
          // happen when y settles at a distance below radius... then y is
          // in the ball and counted; otherwise y settled as a non-member,
          // which cannot happen because settling order is by distance and
          // y's distance <= dx + w > dx). Count it as settled for balance.
          ++candidates_total;
          ++candidates_settled;
        }
      }
      const Distance dy = dist_add(dx, wts[i]);
      if (dy < dist_.get_or(y, kInfDistance)) {
        dist_.set(y, dy);
        heap_.emplace_back(dy, y);
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
    }
    if (ball_complete && candidates_settled == candidates_total) break;
  }
  return v;
}

void VicinityBuilder::mark_boundary(Vicinity& v) {
  if (v.members.empty()) return;
  in_gamma_.reset();
  for (const VicinityMember& m : v.members) in_gamma_.insert(m.node);
  for (VicinityMember& m : v.members) {
    // Ball members are interior by construction: every neighbor of a ball
    // node is a Γ-candidate and therefore a member. Only shell members can
    // have edges leaving the vicinity.
    if (m.in_ball) continue;
    const auto nbrs = direction_ == Direction::kOut
                          ? g_.neighbors(m.node)
                          : g_.in_neighbors(m.node);
    for (const NodeId y : nbrs) {
      if (!in_gamma_.contains(y)) {
        m.on_boundary = true;
        ++v.boundary_size;
        break;
      }
    }
  }
}

}  // namespace vicinity::core
