// VicinityStore: the packed arena layout, checked against the builder's
// Vicinity members by brute force.
#include "core/vicinity_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/path.h"
#include "core/landmarks.h"
#include "test_support.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace vicinity::core {
namespace {

// The parameterized suites predate the single layout; they keep their
// StoreBackend parameter (one value) so their test names stay stable.
std::string backend_name(const ::testing::TestParamInfo<StoreBackend>&) {
  return "Packed";
}

/// Length of Γ(u)'s derived walk from member x (VicinityStore::walk_tree),
/// checked to be a real path from u to x; kInfDistance when there is none.
Distance walk_length(const VicinityStore& store, const graph::Graph& g,
                     NodeId u, NodeId x) {
  std::vector<NodeId> walk;
  if (!store.walk_tree(g, Direction::kOut, u, x, walk)) return kInfDistance;
  std::reverse(walk.begin(), walk.end());
  EXPECT_TRUE(algo::is_valid_path(g, walk, u, x)) << u << " walks " << x;
  return algo::path_length(g, walk);
}

class StoreTest : public ::testing::TestWithParam<StoreBackend> {
 protected:
  Vicinity make_vicinity(const graph::Graph& g, NodeId u, Distance r) {
    VicinityBuilder builder(g);
    return builder.build(u, r, kInvalidNode);
  }
};

TEST_P(StoreTest, FindReturnsStoredEntries) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0, 5};
  store.prepare(nodes);
  const Vicinity v = make_vicinity(g, 0, 2);
  store.set(0, v);
  EXPECT_TRUE(store.has(0));
  EXPECT_TRUE(store.has(5));   // prepared but empty
  EXPECT_FALSE(store.has(1));  // never prepared
  for (const auto& m : v.members) {
    const ProbeResult e = store.find(0, m.node);
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.dist, m.dist);
    // The derived parent step: each member walks back to the origin along
    // a shortest path of its stored length.
    EXPECT_EQ(walk_length(store, g, 0, m.node), m.dist) << m.node;
  }
  // Non-members probe as absent.
  std::size_t missing = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    bool member = false;
    for (const auto& m : v.members) member |= (m.node == x);
    if (!member && !store.find(0, x).found) ++missing;
  }
  EXPECT_EQ(missing, g.num_nodes() - v.members.size());
}

TEST_P(StoreTest, BoundaryViewMatchesFlags) {
  const auto g = testing::random_connected(200, 700, 141);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {3};
  store.prepare(nodes);
  const Vicinity v = make_vicinity(g, 3, 2);
  store.set(3, v);
  const auto view = store.boundary(3);
  EXPECT_EQ(view.nodes.size(), v.boundary_size);
  EXPECT_EQ(store.boundary_size(3), v.boundary_size);
  for (std::size_t i = 0; i < view.nodes.size(); ++i) {
    const ProbeResult e = store.find(3, view.nodes[i]);
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.dist, view.dists[i]);
  }
}

TEST_P(StoreTest, MetadataAccessors) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{7});
  const Vicinity v = make_vicinity(g, 7, 3);
  store.set(7, v);
  EXPECT_EQ(store.radius(7), 3u);
  EXPECT_EQ(store.vicinity_size(7), v.members.size());
  EXPECT_EQ(store.total_entries(), v.members.size());
  EXPECT_EQ(store.indexed_nodes(), 1u);
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST_P(StoreTest, ForEachMemberVisitsAll) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{0});
  const Vicinity v = make_vicinity(g, 0, 2);
  store.set(0, v);
  std::size_t count = 0;
  store.for_each_member(0, [&](NodeId, const StoredEntry&) { ++count; });
  EXPECT_EQ(count, v.members.size());
}

TEST_P(StoreTest, SetValidatesUsage) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{0});
  Vicinity v = make_vicinity(g, 1, 2);
  EXPECT_THROW(store.set(1, v), std::logic_error);   // not prepared
  EXPECT_THROW(store.set(0, v), std::logic_error);   // origin mismatch
  EXPECT_THROW(store.prepare(std::vector<NodeId>{999}), std::out_of_range);
}

TEST_P(StoreTest, DuplicatePrepareIsIdempotent) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{0, 0, 1, 0});
  EXPECT_EQ(store.indexed_nodes(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreTest,
                         ::testing::Values(StoreBackend::kPacked),
                         backend_name);

TEST_P(StoreTest, ProbingInvalidNodeIsCheckedError) {
  // kInvalidNode is the not-a-node sentinel; probing it is a checked error
  // in every build type, never a silent miss.
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0};
  store.prepare(nodes);
  store.set(0, make_vicinity(g, 0, 2));
  EXPECT_THROW(store.find(0, kInvalidNode), std::invalid_argument);
}

TEST_P(StoreTest, StoringInvalidNodeMemberIsCheckedError) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0};
  store.prepare(nodes);
  Vicinity v = make_vicinity(g, 0, 2);
  v.members.push_back(VicinityMember{kInvalidNode, 1, true, false});
  EXPECT_THROW(store.set(0, v), std::invalid_argument);
}

TEST_P(StoreTest, ReplacingASlotAdjustsTotalsAndContents) {
  // Dynamic updates overwrite slots via set(); the old entries must vanish
  // and the global totals must track the delta, not accumulate.
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0};
  store.prepare(nodes);

  const Vicinity big = make_vicinity(g, 0, 3);
  store.set(0, big);
  const auto big_total = store.total_entries();
  const auto big_boundary = store.total_boundary_entries();
  EXPECT_EQ(big_total, big.members.size());

  const Vicinity small = make_vicinity(g, 0, 1);
  ASSERT_LT(small.members.size(), big.members.size());
  store.set(0, small);
  EXPECT_EQ(store.total_entries(), small.members.size());
  EXPECT_EQ(store.vicinity_size(0), small.members.size());
  EXPECT_EQ(store.total_boundary_entries(), small.boundary_size);
  EXPECT_EQ(store.radius(0), 1u);

  // Entries of the old (larger) vicinity are gone.
  std::size_t found = 0;
  for (const auto& m : big.members) {
    if (store.find(0, m.node).found) ++found;
  }
  EXPECT_EQ(found, small.members.size());

  // Replace back with the big one: totals recover exactly.
  store.set(0, big);
  EXPECT_EQ(store.total_entries(), big_total);
  EXPECT_EQ(store.total_boundary_entries(), big_boundary);
}

TEST_P(StoreTest, RefreshBoundaryFlagInsertsAndRemovesSortedEntries) {
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0};
  store.prepare(nodes);
  store.set(0, make_vicinity(g, 0, 2));

  const auto before = store.boundary(0);
  ASSERT_FALSE(before.nodes.empty());
  const NodeId member = before.nodes[0];
  const Distance dist = before.dists[0];
  const auto boundary_size = before.nodes.size();

  // Re-deriving the flag from the graph is a no-op when nothing changed.
  store.refresh_boundary_flag(0, member, g, Direction::kOut);
  EXPECT_EQ(store.boundary(0).nodes.size(), boundary_size);
  for (std::size_t i = 1; i < store.boundary(0).nodes.size(); ++i) {
    EXPECT_LT(store.boundary(0).nodes[i - 1], store.boundary(0).nodes[i]);
  }
  // The (node, dist) pairing survives.
  const auto after = store.boundary(0);
  ASSERT_EQ(after.nodes[0], member);
  EXPECT_EQ(after.dists[0], dist);
}

/// Brute-force reference: the member of `v` with node x, or nullptr.
const VicinityMember* member_of(const Vicinity& v, NodeId x) {
  for (const VicinityMember& m : v.members) {
    if (m.node == x) return &m;
  }
  return nullptr;
}

TEST(StoreBackendTest, BackendsAgreeProbeForProbe) {
  // Every probe, boundary view and total agrees with a linear scan of the
  // builder's Vicinity members.
  const auto g = testing::random_connected(300, 1200, 142);
  VicinityStore packed(g.num_nodes());
  const util::RoleGuard packed_role(packed.mutation_role());
  const std::vector<NodeId> nodes = {1, 2, 3, 4, 5};
  packed.prepare(nodes);
  VicinityBuilder builder(g);
  std::vector<Vicinity> built;
  for (const NodeId u : nodes) {
    built.push_back(builder.build(u, 2, kInvalidNode));
    packed.set(u, built.back());
  }
  packed.pack();
  std::uint64_t entries = 0, boundary = 0;
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const NodeId u = nodes[k];
    const Vicinity& v = built[k];
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      const VicinityMember* m = member_of(v, x);
      const ProbeResult c = packed.find(u, x);
      ASSERT_EQ(c.found, m != nullptr) << u << " probes " << x;
      if (m != nullptr) {
        EXPECT_EQ(c.dist, m->dist);
        EXPECT_EQ(walk_length(packed, g, u, x), m->dist) << u << " walks " << x;
      }
    }
    // The boundary view is exactly the on_boundary members, by node.
    std::vector<VicinityMember> expect;
    for (const VicinityMember& m : v.members) {
      if (m.on_boundary) expect.push_back(m);
    }
    std::sort(expect.begin(), expect.end(),
              [](const VicinityMember& a, const VicinityMember& b) {
                return a.node < b.node;
              });
    const auto bp = packed.boundary(u);
    ASSERT_EQ(bp.nodes.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(bp.nodes[i], expect[i].node);
      EXPECT_EQ(bp.dists[i], expect[i].dist);
    }
    EXPECT_EQ(packed.vicinity_size(u), v.members.size());
    entries += v.members.size();
    boundary += expect.size();
  }
  EXPECT_EQ(packed.total_entries(), entries);
  EXPECT_EQ(packed.total_boundary_entries(), boundary);
}

// ---- Packed-backend specifics ------------------------------------------

TEST(PackedStoreTest, SlicesAreGroupSortedAndBoundaryIsAPrefix) {
  const auto g = testing::random_connected(300, 1100, 143);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0, 1, 2, 3};
  store.prepare(nodes);
  VicinityBuilder builder(g);
  for (const NodeId u : nodes) store.set(u, builder.build(u, 2, kInvalidNode));
  EXPECT_FALSE(store.fully_packed());  // everything staged pre-pack
  store.pack();
  EXPECT_TRUE(store.fully_packed());
  for (const NodeId u : nodes) {
    // boundary() is the slice prefix: every boundary node probes back to
    // the same entry, and the view is strictly ascending.
    const auto view = store.boundary(u);
    for (std::size_t i = 1; i < view.nodes.size(); ++i) {
      EXPECT_LT(view.nodes[i - 1], view.nodes[i]);
    }
    // for_each order = slice order: boundary group then interior group.
    std::vector<NodeId> order;
    store.for_each_member(u, [&](NodeId v, const StoredEntry&) {
      order.push_back(v);
    });
    ASSERT_EQ(order.size(), store.vicinity_size(u));
    const std::size_t blen = view.nodes.size();
    for (std::size_t i = 0; i < blen; ++i) EXPECT_EQ(order[i], view.nodes[i]);
    for (std::size_t i = blen + 1; i < order.size(); ++i) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

TEST(PackedStoreTest, InPlaceReplacementDoesNotFragment) {
  const auto g = testing::random_connected(400, 1600, 144);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0, 1, 2};
  store.prepare(nodes);
  VicinityBuilder builder(g);
  for (const NodeId u : nodes) store.set(u, builder.build(u, 3, kInvalidNode));
  store.pack();
  // A same-or-smaller replacement reuses the arena region: still packed.
  store.set(1, builder.build(1, 2, kInvalidNode));
  EXPECT_TRUE(store.fully_packed());
  // Growing past the region stages the slot; pack() folds it back.
  const std::size_t shrunk = store.vicinity_size(1);
  store.set(1, builder.build(1, 4, kInvalidNode));
  if (store.vicinity_size(1) > shrunk) {
    EXPECT_FALSE(store.fully_packed());
  }
  store.pack();
  EXPECT_TRUE(store.fully_packed());
  VicinityBuilder check(g);
  const Vicinity v = check.build(1, 4, kInvalidNode);
  for (const auto& m : v.members) {
    const ProbeResult e = store.find(1, m.node);
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.dist, m.dist);
  }
  EXPECT_EQ(store.vicinity_size(1), v.members.size());
}

/// An owned copy of the store's packed contents, as adopt_packed takes it.
VicinityStore::PackedBlob packed_copy(const VicinityStore& store) {
  VicinityStore::PackedBlob blob;
  const VicinityStore::PackedView v = store.export_view(blob);
  std::vector<NodeId> members(v.members.begin(), v.members.end());
  DistColumn dists = DistColumn::copy_of(v.dists);
  blob.members = std::move(members);
  blob.dists = std::move(dists);
  return blob;
}

TEST(PackedStoreTest, AdoptExportRoundTripAndValidation) {
  const auto g = testing::random_connected(250, 900, 145);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  const std::vector<NodeId> nodes = {0, 5, 9};
  store.prepare(nodes);
  VicinityBuilder builder(g);
  for (const NodeId u : nodes) store.set(u, builder.build(u, 2, kInvalidNode));
  store.pack();

  auto blob = packed_copy(store);
  VicinityStore copy(g.num_nodes());
  const util::RoleGuard copy_role(copy.mutation_role());
  copy.prepare(nodes);
  copy.adopt_packed(std::move(blob));
  ASSERT_EQ(copy.total_entries(), store.total_entries());
  for (const NodeId u : nodes) {
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      const ProbeResult a = store.find(u, x);
      const ProbeResult b = copy.find(u, x);
      ASSERT_EQ(a.found, b.found);
      if (a.found) {
        EXPECT_EQ(a.dist, b.dist);
        std::vector<NodeId> wa, wb;
        ASSERT_TRUE(store.walk_tree(g, Direction::kOut, u, x, wa));
        ASSERT_TRUE(copy.walk_tree(g, Direction::kOut, u, x, wb));
        EXPECT_EQ(wa, wb);
      }
    }
  }

  // Corrupt blobs are rejected, not installed.
  auto bad = packed_copy(store);
  bad.members.pop_back();
  VicinityStore reject(g.num_nodes());
  const util::RoleGuard reject_role(reject.mutation_role());
  reject.prepare(nodes);
  EXPECT_THROW(reject.adopt_packed(std::move(bad)), std::runtime_error);

  auto unsorted = packed_copy(store);
  if (unsorted.members.size() >= 2 && unsorted.boundary_len[0] >= 2) {
    std::swap(unsorted.members[0], unsorted.members[1]);
    VicinityStore reject2(g.num_nodes());
    const util::RoleGuard reject2_role(reject2.mutation_role());
    reject2.prepare(nodes);
    EXPECT_THROW(reject2.adopt_packed(std::move(unsorted)),
                 std::runtime_error);
  }
}

TEST(PackedStoreTest, AdoptRejectsMemberInBothGroups) {
  // Each group can be individually sorted and in range while sharing a
  // node — a corrupt VCNIDX04 body that must not load as a slice with two
  // entries for one member.
  const auto g = testing::karate_club();
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{0});
  VicinityStore::PackedBlob blob;
  blob.radius = {2};
  blob.nearest = {kInvalidNode};
  blob.len = {2};
  blob.boundary_len = {1};
  blob.members = {5, 5};  // boundary group {5}, interior group {5}
  blob.dists = DistColumn(std::vector<Distance>{1, 2});
  try {
    store.adopt_packed(std::move(blob));
    FAIL() << "duplicate member across groups loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("both boundary and interior"),
              std::string::npos)
        << e.what();
  }
}

TEST(PackedStoreTest, ShrinkingRepairsTriggerCompaction) {
  // Delete-heavy repair streams shrink slices in place; the dead tails
  // must count as waste so pack_if_needed() eventually reclaims them.
  const auto g = testing::random_connected(3000, 12000, 148);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 30; ++u) nodes.push_back(u);
  store.prepare(nodes);
  VicinityBuilder builder(g);
  for (const NodeId u : nodes) store.set(u, builder.build(u, 3, kInvalidNode));
  store.pack();
  const auto big_bytes = store.memory_bytes();
  const auto big_total = store.total_entries();
  for (const NodeId u : nodes) store.set(u, builder.build(u, 1, kInvalidNode));
  ASSERT_LT(store.total_entries(), big_total / 4);  // mostly dead arena now
  EXPECT_TRUE(store.fully_packed());                // in-place, not staged
  store.pack_if_needed();
  EXPECT_LT(store.memory_bytes(), big_bytes);
  // After compaction every probe still resolves.
  for (const NodeId u : nodes) {
    const Vicinity v = builder.build(u, 1, kInvalidNode);
    for (const auto& m : v.members) {
      ASSERT_TRUE(store.find(u, m.node).found);
    }
    EXPECT_EQ(store.vicinity_size(u), v.members.size());
  }
}

TEST(PackedStoreTest, IntersectionKernelsAgreeWithHashProbes) {
  // intersect_min(∂Γ(s), t) against a brute-force scan of the builder's
  // members: min over boundary members b of Γ(s) that are also in Γ(t) of
  // d(s,b) + d(b,t), with one counted probe per iterated member.
  // intersect_witness() names the smallest b attaining it.
  const auto g = testing::random_connected(500, 2200, 146);
  VicinityStore packed(g.num_nodes());
  const util::RoleGuard packed_role(packed.mutation_role());
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 40; ++u) nodes.push_back(u);
  packed.prepare(nodes);
  VicinityBuilder builder(g);
  std::vector<Vicinity> built;
  for (const NodeId u : nodes) {
    built.push_back(builder.build(u, 3, kInvalidNode));
    packed.set(u, built.back());
  }
  packed.pack();
  for (std::size_t si = 0; si < nodes.size(); ++si) {
    for (std::size_t ti = 0; ti < nodes.size(); ++ti) {
      if (si == ti) continue;
      Distance expect = kInfDistance;
      NodeId expect_witness = kInvalidNode;
      std::uint32_t expect_lookups = 0;
      for (const VicinityMember& b : built[si].members) {
        if (!b.on_boundary) continue;
        ++expect_lookups;
        if (const VicinityMember* m = member_of(built[ti], b.node)) {
          const Distance d = dist_add(b.dist, m->dist);
          if (d < expect || (d == expect && b.node < expect_witness)) {
            expect = d;
            expect_witness = b.node;
          }
        }
      }
      std::uint32_t lookups = 0;
      const Distance got =
          packed.intersect_min(packed.boundary(nodes[si]), nodes[ti], lookups);
      ASSERT_EQ(got, expect) << nodes[si] << "->" << nodes[ti];
      ASSERT_EQ(lookups, expect_lookups);
      const auto [wd, w] =
          packed.intersect_witness(packed.boundary(nodes[si]), nodes[ti]);
      ASSERT_EQ(wd, expect) << nodes[si] << "->" << nodes[ti];
      ASSERT_EQ(w, expect_witness) << nodes[si] << "->" << nodes[ti];
    }
  }
}

TEST(PackedStoreTest, SortedIntersectionKernelVariantsAgree) {
  // merge vs gallop vs adaptive over skewed synthetic arrays, with each
  // side's distances four bytes or one byte wide.
  util::Rng rng(147);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t na = 1 + rng.next_below(40);
    const std::size_t nb = 1 + rng.next_below(2000);
    auto gen_arr = [&](std::size_t n) {
      std::vector<NodeId> ids;
      NodeId cur = 0;
      for (std::size_t i = 0; i < n; ++i) {
        cur += 1 + static_cast<NodeId>(rng.next_below(9));
        ids.push_back(cur);
      }
      return ids;
    };
    const auto an = gen_arr(na);
    const auto bn = gen_arr(nb);
    std::vector<Distance> ad(na), bd(nb);
    for (auto& d : ad) d = 1 + static_cast<Distance>(rng.next_below(6));
    for (auto& d : bd) d = 1 + static_cast<Distance>(rng.next_below(6));

    Distance ref = kInfDistance;
    NodeId ref_witness = kInvalidNode;  // the first (smallest) minimal node
    for (std::size_t i = 0; i < na; ++i) {
      const auto it = std::lower_bound(bn.begin(), bn.end(), an[i]);
      if (it != bn.end() && *it == an[i]) {
        const auto j = static_cast<std::size_t>(it - bn.begin());
        if (dist_add(ad[i], bd[j]) < ref) {
          ref = dist_add(ad[i], bd[j]);
          ref_witness = an[i];
        }
      }
    }
    const DistColumn a_narrow(ad), b_narrow(bd);
    ASSERT_TRUE(a_narrow.narrow() && b_narrow.narrow());
    for (const DistView a : {DistView(std::span<const Distance>(ad)),
                             a_narrow.view()}) {
      for (const DistView b : {DistView(std::span<const Distance>(bd)),
                               b_narrow.view()}) {
        EXPECT_EQ(detail::merge_intersect_min(an, a, bn, b), ref);
        EXPECT_EQ(detail::gallop_intersect_min(an, a, bn, b), ref);
        EXPECT_EQ(detail::intersect_sorted_min(an, a, bn, b), ref);
        EXPECT_EQ(detail::intersect_sorted_min(bn, b, an, a), ref);
        for (const bool swap : {false, true}) {
          NodeId w = 0;
          EXPECT_EQ(swap ? detail::intersect_sorted_min(bn, b, an, a, &w)
                         : detail::intersect_sorted_min(an, a, bn, b, &w),
                    ref);
          EXPECT_EQ(w, ref_witness);
        }
      }
    }
  }
}

TEST(PackedStoreTest, RefreshBoundaryFlagRotatesWithinTheSlice) {
  // Force both directions of the flag flip on a path graph, where boundary
  // membership is easy to reason about: 0-1-2-3-4-..., Γ(2) with radius 2.
  const auto g = testing::path_graph(9);
  VicinityStore store(g.num_nodes());
  const util::RoleGuard role(store.mutation_role());
  store.prepare(std::vector<NodeId>{2});
  VicinityBuilder builder(g);
  store.set(2, builder.build(2, 2, kInvalidNode));
  store.pack();
  const auto initial = store.boundary(2).nodes.size();
  ASSERT_GT(initial, 0u);
  const NodeId member = store.boundary(2).nodes[0];
  // No-op refresh keeps the slice intact.
  store.refresh_boundary_flag(2, member, g, Direction::kOut);
  EXPECT_EQ(store.boundary(2).nodes.size(), initial);
  // Membership probes still resolve after the (no-op) rotation path.
  store.for_each_member(2, [&](NodeId v, const StoredEntry& e) {
    const ProbeResult p = store.find(2, v);
    ASSERT_TRUE(p.found);
    EXPECT_EQ(p.dist, e.dist);
  });
}

// ---- Shared-mutation contract ------------------------------------------

class VicinityStoreConcurrencyTest
    : public ::testing::TestWithParam<StoreBackend> {};

TEST_P(VicinityStoreConcurrencyTest, ParallelFlagRefreshKeepsGlobalTotals) {
  // Regression: refresh_boundary_flag bumped total_boundary_ with plain
  // ++/-- while set() used relaxed atomics — racing the shared counter when
  // dynamic repair patches flags for distinct nodes from pool workers (the
  // documented REQUIRES_SHARED(mutation_role_) contract). Store every
  // vicinity with its boundary flags inverted, then re-derive all flags
  // from the graph in parallel; the global counter must land exactly on
  // the true total, not on a lost-update approximation.
  const auto g = testing::random_connected(400, 1600, 149);
  VicinityStore store(g.num_nodes());
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 48; ++u) nodes.push_back(u);
  {
    const util::RoleGuard role(store.mutation_role());
    store.prepare(nodes);
  }

  VicinityBuilder builder(g);
  std::uint64_t true_boundary = 0;
  std::vector<std::vector<NodeId>> members_of(nodes.size());
  {
    const util::RoleGuard role(store.mutation_role());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Vicinity v = builder.build(nodes[i], 2, kInvalidNode);
      true_boundary += v.boundary_size;
      v.boundary_size = v.members.size() - v.boundary_size;
      for (auto& m : v.members) {
        m.on_boundary = !m.on_boundary;
        members_of[i].push_back(m.node);
      }
      store.set(nodes[i], v);
    }
    store.pack();
  }
  ASSERT_NE(store.total_boundary_entries(), true_boundary);

  util::ThreadPool pool(4);
  pool.parallel_for_ranges(
      nodes.size(), 4, [&](std::uint64_t lo, std::uint64_t hi, unsigned) {
        // Workers patch disjoint slots: shared hold on the mutation role.
        const util::SharedRoleGuard role(store.mutation_role());
        for (std::uint64_t i = lo; i < hi; ++i) {
          for (const NodeId m : members_of[i]) {
            store.refresh_boundary_flag(nodes[i], m, g, Direction::kOut);
          }
        }
      });

  EXPECT_EQ(store.total_boundary_entries(), true_boundary);
  std::uint64_t recount = 0;
  for (const NodeId u : nodes) recount += store.boundary(u).nodes.size();
  EXPECT_EQ(recount, true_boundary);
}

INSTANTIATE_TEST_SUITE_P(Backends, VicinityStoreConcurrencyTest,
                         ::testing::Values(StoreBackend::kPacked),
                         backend_name);

}  // namespace
}  // namespace vicinity::core
