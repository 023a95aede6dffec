#include "core/landmark_table.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "algo/bfs.h"
#include "algo/dijkstra.h"
#include "core/dynamic.h"

namespace vicinity::core {

namespace {

std::vector<Distance> sssp(const graph::Graph& g, NodeId src, bool reverse) {
  if (g.weighted()) {
    return (reverse ? algo::dijkstra_reverse(g, src) : algo::dijkstra(g, src))
        .dist;
  }
  return (reverse ? algo::bfs_reverse(g, src) : algo::bfs(g, src)).dist;
}

}  // namespace

void LandmarkTables::index_landmarks(const LandmarkSet& landmarks, NodeId n) {
  landmark_nodes_ = landmarks.nodes;
  landmark_index_.assign(n, kInvalidNode);
  for (std::size_t i = 0; i < landmark_nodes_.size(); ++i) {
    landmark_index_[landmark_nodes_[i]] = static_cast<NodeId>(i);
  }
}

LandmarkTables LandmarkTables::build_full(const graph::Graph& g,
                                          const LandmarkSet& landmarks,
                                          util::ThreadPool* pool) {
  LandmarkTables t;
  t.mode_ = Mode::kFull;
  t.directed_ = g.directed();
  t.index_landmarks(landmarks, g.num_nodes());
  const std::size_t k = t.landmark_nodes_.size();
  const std::size_t n = g.num_nodes();
  // Each landmark fills its own row. A matrix is filled byte-wide, so a
  // small-world build never holds a four-byte copy, and filled again four
  // bytes wide if a row does not fit.
  const auto matrix = [&](bool reverse) {
    for (bool narrow = true;; narrow = false) {
      DistColumn m(k * n, narrow);
      std::atomic<bool> too_wide{false};
      auto work = [&](std::uint64_t i) {
        if (too_wide) return;
        const auto row = sssp(g, t.landmark_nodes_[i], reverse);
        if (narrow && !fits_narrow(DistView(row))) {
          too_wide = true;
          return;
        }
        for (std::size_t j = 0; j < n; ++j) m.set(i * n + j, row[j]);
      };
      if (pool && pool->thread_count() > 1) {
        pool->parallel_for(k, work);
      } else {
        for (std::uint64_t i = 0; i < k; ++i) work(i);
      }
      if (!too_wide) return m;
    }
  };
  t.fwd_ = matrix(/*reverse=*/false);
  if (g.directed()) t.rev_ = matrix(/*reverse=*/true);
  return t;
}

LandmarkTables LandmarkTables::build_subset(const graph::Graph& g,
                                            const LandmarkSet& landmarks,
                                            std::span<const NodeId> subset,
                                            util::ThreadPool* pool) {
  LandmarkTables t;
  t.mode_ = Mode::kSubset;
  t.directed_ = g.directed();
  t.index_landmarks(landmarks, g.num_nodes());
  t.subset_nodes_.assign(subset.begin(), subset.end());
  t.subset_index_.assign(g.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < t.subset_nodes_.size(); ++i) {
    t.subset_index_[t.subset_nodes_[i]] = static_cast<NodeId>(i);
  }
  const std::size_t k = t.landmark_nodes_.size();
  const std::size_t s = t.subset_nodes_.size();
  std::vector<Distance> to_lm(s * k, kInfDistance);
  std::vector<Distance> from_lm(g.directed() ? s * k : 0, kInfDistance);

  auto work = [&](std::uint64_t i) {
    const NodeId v = t.subset_nodes_[i];
    // Forward search from v: d(v -> x); read off landmark positions.
    std::vector<Distance> dist = sssp(g, v, /*reverse=*/false);
    for (std::size_t j = 0; j < k; ++j) {
      to_lm[i * k + j] = dist[t.landmark_nodes_[j]];
    }
    if (g.directed()) {
      // Backward search: d(x -> v).
      dist = sssp(g, v, /*reverse=*/true);
      for (std::size_t j = 0; j < k; ++j) {
        from_lm[i * k + j] = dist[t.landmark_nodes_[j]];
      }
    }
  };
  if (pool && pool->thread_count() > 1) {
    pool->parallel_for(s, work);
  } else {
    for (std::uint64_t i = 0; i < s; ++i) work(i);
  }
  t.to_lm_ = DistColumn(std::move(to_lm));
  t.from_lm_ = DistColumn(std::move(from_lm));
  return t;
}

void LandmarkTables::materialize() {
  if (backing_ == nullptr) return;
  for (DistColumn* m : {&fwd_, &rev_, &to_lm_, &from_lm_}) m->materialize();
  backing_.reset();
}

std::size_t LandmarkTables::refresh_rows_insert(const graph::Graph& g,
                                                NodeId a, NodeId b, Weight w) {
  if (mode_ != Mode::kFull) {
    throw std::logic_error("landmark table refresh: requires full mode");
  }
  materialize();  // copy-on-write: refresh mutates rows in place
  std::size_t touched = 0;
  for (std::size_t i = 0; i < landmark_nodes_.size(); ++i) {
    bool row_changed = false;
    // Forward row d(l -> v): the new arc can lower b via a (either
    // orientation on undirected graphs); improvements then cascade along
    // out-arcs.
    {
      const DistRow row = owned_row(fwd_, i);
      std::vector<NodeId> seeds;
      auto seed = [&](NodeId to, NodeId via) {
        const Distance cand = dist_add(row[via], w);
        if (cand < row[to]) {
          row.set(to, cand);
          seeds.push_back(to);
        }
      };
      seed(b, a);
      if (!g.directed()) seed(a, b);
      if (!seeds.empty()) {
        detail::relax_row(g, /*use_in_arcs=*/false, row, seeds);
        row_changed = true;
      }
    }
    // Backward row d(v -> l) (directed only): the arc lowers a via b, and
    // improvements cascade along in-arcs.
    if (directed_) {
      const DistRow row = owned_row(rev_, i);
      const Distance cand = dist_add(row[b], w);
      if (cand < row[a]) {
        row.set(a, cand);
        const NodeId seeds[] = {a};
        detail::relax_row(g, /*use_in_arcs=*/true, row, seeds);
        row_changed = true;
      }
    }
    if (row_changed) ++touched;
  }
  return touched;
}

std::size_t LandmarkTables::refresh_rows_delete(const graph::Graph& g,
                                                NodeId a, NodeId b) {
  if (mode_ != Mode::kFull) {
    throw std::logic_error("landmark table refresh: requires full mode");
  }
  materialize();  // copy-on-write: refresh mutates rows in place
  std::size_t touched = 0;
  for (std::size_t i = 0; i < landmark_nodes_.size(); ++i) {
    const DistRow row = owned_row(fwd_, i);
    std::size_t changed =
        detail::repair_row_delete(g, /*use_in_arcs=*/false, row, a, b);
    if (!g.directed()) {
      // Undirected deletes remove both arcs; repair each orientation (the
      // second call is a cheap support check once the first settled).
      changed += detail::repair_row_delete(g, /*use_in_arcs=*/false, row, b, a);
    } else {
      changed += detail::repair_row_delete(g, /*use_in_arcs=*/true,
                                           owned_row(rev_, i), a, b);
    }
    if (changed != 0) ++touched;
  }
  return touched;
}

Distance LandmarkTables::dist_from_landmark(NodeId l, NodeId v) const {
  if (mode_ != Mode::kFull) throw std::logic_error("landmark table: not full mode");
  const NodeId i = landmark_index_.at(l);
  if (i == kInvalidNode) throw std::invalid_argument("not a landmark");
  return row(fwd_, i)[v];
}

Distance LandmarkTables::dist_to_landmark(NodeId v, NodeId l) const {
  if (mode_ != Mode::kFull) throw std::logic_error("landmark table: not full mode");
  const NodeId i = landmark_index_.at(l);
  if (i == kInvalidNode) throw std::invalid_argument("not a landmark");
  return row(directed_ ? rev_ : fwd_, i)[v];
}

bool LandmarkTables::walk_tree(const graph::Graph& g, Direction dir, NodeId l,
                               NodeId from, std::vector<NodeId>& out) const {
  if (mode_ != Mode::kFull) {
    throw std::logic_error("landmark table: not full mode");
  }
  const NodeId i = landmark_index_.at(l);
  if (i == kInvalidNode) throw std::invalid_argument("not a landmark");
  // The forward row is grown along out-arcs, so its tight supports are
  // in-neighbours; the reverse row's are out-neighbours.
  const bool reverse = dir == Direction::kIn;
  const DistView dist = row(reverse && directed_ ? rev_ : fwd_, i);
  // A mapped row is untrusted: check every id and bound the walk.
  const std::size_t n = dist.size();
  NodeId cur = from;
  for (std::size_t steps = 0; cur != l; ++steps) {
    if (cur >= n || dist[cur] == kInfDistance || steps == n) return false;
    out.push_back(cur);
    cur = detail::tight_support(g, /*use_in_arcs=*/reverse, dist, cur,
                                [](NodeId) { return false; });
  }
  out.push_back(l);
  return true;
}

Distance LandmarkTables::subset_dist_to_landmark(NodeId v, NodeId l) const {
  if (mode_ != Mode::kSubset) throw std::logic_error("landmark table: not subset mode");
  const NodeId si = subset_index_.at(v);
  const NodeId li = landmark_index_.at(l);
  if (si == kInvalidNode || li == kInvalidNode) {
    throw std::invalid_argument("subset_dist_to_landmark: bad pair");
  }
  return to_lm_[static_cast<std::size_t>(si) * landmark_nodes_.size() + li];
}

Distance LandmarkTables::subset_dist_from_landmark(NodeId l, NodeId v) const {
  if (mode_ != Mode::kSubset) throw std::logic_error("landmark table: not subset mode");
  if (!directed_) return subset_dist_to_landmark(v, l);
  const NodeId si = subset_index_.at(v);
  const NodeId li = landmark_index_.at(l);
  if (si == kInvalidNode || li == kInvalidNode) {
    throw std::invalid_argument("subset_dist_from_landmark: bad pair");
  }
  return from_lm_[static_cast<std::size_t>(si) * landmark_nodes_.size() + li];
}

Distance LandmarkTables::landmark_query(NodeId s, NodeId t,
                                        bool s_is_landmark) const {
  switch (mode_) {
    case Mode::kNone:
      throw std::logic_error("landmark table: no tables built");
    case Mode::kFull:
      // d(s -> t): via s's forward row, or t's backward row.
      return s_is_landmark ? dist_from_landmark(s, t) : dist_to_landmark(s, t);
    case Mode::kSubset:
      return s_is_landmark ? subset_dist_from_landmark(s, t)
                           : subset_dist_to_landmark(s, t);
  }
  return kInfDistance;
}

std::uint64_t LandmarkTables::entries() const {
  return fwd_.size() + rev_.size() + to_lm_.size() + from_lm_.size();
}

std::uint64_t LandmarkTables::memory_bytes() const {
  return fwd_.heap_bytes() + rev_.heap_bytes() + to_lm_.heap_bytes() +
         from_lm_.heap_bytes() + landmark_index_.size() * sizeof(NodeId) +
         subset_index_.size() * sizeof(NodeId);
}

std::uint64_t LandmarkTables::mapped_bytes() const {
  return fwd_.borrowed_bytes() + rev_.borrowed_bytes() +
         to_lm_.borrowed_bytes() + from_lm_.borrowed_bytes();
}

}  // namespace vicinity::core
