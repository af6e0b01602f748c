#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "pack/pack.h"
#include "rtree/join.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "simd/dispatch.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::rtree {
namespace {

using geom::Rect;
using storage::Rid;

struct Env {
  explicit Env(uint32_t page_size = 512)
      : disk(page_size), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

RTree MakeTree(Env* env, const std::vector<Rect>& rects, bool packed,
               size_t max_entries = 8) {
  RTreeOptions opts;
  opts.max_entries = max_entries;
  auto tree = RTree::Create(&env->pool, opts);
  PICTDB_CHECK(tree.ok());
  if (packed) {
    std::vector<Rid> rids;
    for (size_t i = 0; i < rects.size(); ++i) {
      rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
    }
    PICTDB_CHECK_OK(pack::Pack(
        &*tree, pack::MakeLeafEntries(rects, rids)));
  } else {
    for (size_t i = 0; i < rects.size(); ++i) {
      PICTDB_CHECK_OK(
          tree->Insert(rects[i], Rid{static_cast<storage::PageId>(i), 0}));
    }
  }
  return std::move(tree).value();
}

using PairSet = std::set<std::pair<storage::PageId, storage::PageId>>;

PairSet RunJoin(const RTree& a, const RTree& b, bool nested,
                JoinStats* stats = nullptr) {
  PairSet out;
  const auto cb = [&out](const LeafHit& l, const LeafHit& r) {
    out.insert({l.rid.page_id, r.rid.page_id});
  };
  if (nested) {
    PICTDB_CHECK_OK(NestedLoopJoin(a, b, cb, stats));
  } else {
    PICTDB_CHECK_OK(SpatialJoin(a, b, cb, stats));
  }
  return out;
}

TEST(JoinTest, EmptyTrees) {
  Env env;
  RTree a = MakeTree(&env, {}, false);
  RTree b = MakeTree(&env, {Rect(0, 0, 1, 1)}, false);
  EXPECT_TRUE(RunJoin(a, b, false).empty());
  EXPECT_TRUE(RunJoin(b, a, false).empty());
}

TEST(JoinTest, SimplePairs) {
  Env env;
  RTree a = MakeTree(&env, {Rect(0, 0, 2, 2), Rect(10, 10, 12, 12)}, false);
  RTree b = MakeTree(&env, {Rect(1, 1, 3, 3), Rect(20, 20, 21, 21)}, false);
  const PairSet got = RunJoin(a, b, false);
  const PairSet expected = {{0, 0}};
  EXPECT_EQ(got, expected);
}

TEST(JoinTest, MatchesNestedLoopOnRandomData) {
  Env env;
  Random rng(71);
  std::vector<Rect> lhs, rhs;
  for (int i = 0; i < 120; ++i) {
    const double x = rng.UniformDouble(0, 950);
    const double y = rng.UniformDouble(0, 950);
    lhs.push_back(Rect(x, y, x + rng.UniformDouble(1, 50),
                       y + rng.UniformDouble(1, 50)));
  }
  for (int i = 0; i < 90; ++i) {
    const double x = rng.UniformDouble(0, 950);
    const double y = rng.UniformDouble(0, 950);
    rhs.push_back(Rect(x, y, x + rng.UniformDouble(1, 50),
                       y + rng.UniformDouble(1, 50)));
  }
  RTree a = MakeTree(&env, lhs, true);
  RTree b = MakeTree(&env, rhs, false);  // mixed construction paths
  EXPECT_EQ(RunJoin(a, b, false), RunJoin(a, b, true));
}

TEST(JoinTest, HandlesDifferentHeights) {
  Env env;
  Random rng(73);
  // Big tree vs tiny tree: heights differ by several levels.
  std::vector<Rect> big;
  for (const auto& p :
       workload::UniformPoints(&rng, 400, workload::PaperFrame())) {
    big.push_back(Rect(p.x, p.y, p.x + 5, p.y + 5));
  }
  const std::vector<Rect> small = {Rect(100, 100, 300, 300),
                                   Rect(700, 700, 800, 800)};
  RTree a = MakeTree(&env, big, true, 4);
  RTree b = MakeTree(&env, small, false, 4);
  ASSERT_GT(a.Height(), b.Height());
  EXPECT_EQ(RunJoin(a, b, false), RunJoin(a, b, true));
  EXPECT_EQ(RunJoin(b, a, false), RunJoin(b, a, true));
}

TEST(JoinTest, SpatialJoinPrunesPairs) {
  Env env;
  Random rng(79);
  std::vector<Rect> lhs, rhs;
  // Two spatially separated populations: the join result is empty and the
  // simultaneous traversal should test far fewer pairs than |L|*|R|.
  for (const auto& p :
       workload::UniformPoints(&rng, 300, Rect(0, 0, 400, 400))) {
    lhs.push_back(Rect::FromPoint(p));
  }
  for (const auto& p :
       workload::UniformPoints(&rng, 300, Rect(600, 600, 1000, 1000))) {
    rhs.push_back(Rect::FromPoint(p));
  }
  RTree a = MakeTree(&env, lhs, true);
  RTree b = MakeTree(&env, rhs, true);
  JoinStats tree_stats, nested_stats;
  EXPECT_TRUE(RunJoin(a, b, false, &tree_stats).empty());
  EXPECT_TRUE(RunJoin(a, b, true, &nested_stats).empty());
  EXPECT_LT(tree_stats.pairs_tested, nested_stats.pairs_tested / 10);
}

TEST(JoinTest, SelfJoinContainsDiagonal) {
  Env env;
  Random rng(83);
  std::vector<Rect> rects;
  for (const auto& p :
       workload::UniformPoints(&rng, 60, workload::PaperFrame())) {
    rects.push_back(Rect(p.x, p.y, p.x + 2, p.y + 2));
  }
  RTree a = MakeTree(&env, rects, true);
  const PairSet got = RunJoin(a, a, false);
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_TRUE(got.count({static_cast<storage::PageId>(i),
                           static_cast<storage::PageId>(i)}) == 1);
  }
}

// --- Restricted search space vs the full pair scan --------------------------

/// A rect on a small integer grid, so edges touch often, or one of the
/// cases a filter could get wrong: inverted (empty), NaN, infinite,
/// zero-area. Coordinates are set directly: the normalizing constructor
/// would un-invert an empty rect.
Rect AdversarialRect(Random* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double x = static_cast<double>(rng->Uniform(40));
  const double y = static_cast<double>(rng->Uniform(40));
  Rect r;
  r.lo = {x, y};
  r.hi = {x + static_cast<double>(rng->Uniform(4)),
          y + static_cast<double>(rng->Uniform(4))};
  switch (rng->Uniform(12)) {
    case 0:  // inverted on one axis
      std::swap(r.lo.x, r.hi.x);
      r.lo.x += 1;
      break;
    case 1:
      (rng->Uniform(2) == 0 ? r.lo.x : r.lo.y) = std::nan("");
      break;
    case 2:
      (rng->Uniform(2) == 0 ? r.hi.x : r.hi.y) = std::nan("");
      break;
    case 3:
      r.lo.x = -kInf;
      break;
    case 4:
      r.hi.y = kInf;
      break;
    case 5:  // the whole plane
      r.lo = {-kInf, -kInf};
      r.hi = {kInf, kInf};
      break;
    case 6:  // a point at infinity
      r.lo.x = r.hi.x = kInf;
      break;
    case 7:  // zero area
      r.hi = r.lo;
      break;
    default:
      break;
  }
  return r;
}

/// A tree written node by node: `n` adversarial leaf entries (rid page =
/// index), 1..max_entries entries per node, parent rects the true bound
/// of the child but for about one in eight, which gets a wrong rect.
RTree BuildAdversarialTree(Env* env, Random* rng, size_t n,
                           size_t max_entries = 8) {
  RTreeOptions opts;
  opts.max_entries = max_entries;
  auto created = RTree::Create(&env->pool, opts);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.mbr = AdversarialRect(rng);
    e.payload =
        Entry::PayloadFromRid(Rid{static_cast<storage::PageId>(i), 0});
    entries.push_back(e);
  }
  for (uint16_t level = 0;; ++level) {
    std::vector<Entry> parents;
    for (size_t at = 0; at < entries.size();) {
      const size_t take = std::min<size_t>(1 + rng->Uniform(max_entries),
                                           entries.size() - at);
      const std::vector<Entry> chunk(entries.begin() + at,
                                     entries.begin() + at + take);
      auto id = tree.BulkWriteNode(level, chunk);
      PICTDB_CHECK(id.ok());
      Entry parent;
      parent.mbr = rng->Uniform(8) == 0 ? AdversarialRect(rng)
                                        : Node{level, chunk}.Mbr();
      parent.payload = Entry::PayloadFromChild(*id);
      parents.push_back(parent);
      at += take;
    }
    if (parents.size() == 1) {
      PICTDB_CHECK_OK(
          tree.BulkSetRoot(parents[0].AsChild(), level + 1u, n));
      return tree;
    }
    entries = std::move(parents);
  }
}

using RidSeq = std::vector<std::pair<storage::PageId, storage::PageId>>;

/// The synchronized descent without a restricted search space: every
/// equal-level node pair runs the full |L|x|R| nested loop; unequal
/// levels descend the taller side against the other node's bound.
/// Recursion in entry order is the order the join's stack pops in.
struct FullPairScan {
  void Run(const RTree& left, storage::PageId lid, const RTree& right,
           storage::PageId rid) {
    SoaNode l, r;
    PICTDB_CHECK_OK(left.ReadNodePageSoa(lid, &l));
    PICTDB_CHECK_OK(right.ReadNodePageSoa(rid, &r));
    nodes_visited += 2;
    if (l.level != r.level) {
      const bool left_tall = l.level > r.level;
      const SoaNode& tall = left_tall ? l : r;
      const Rect other = (left_tall ? r : l).Mbr();
      for (size_t i = 0; i < tall.count(); ++i) {
        if (!tall.RectAt(i).Intersects(other)) continue;
        if (left_tall) {
          Run(left, tall.ChildAt(i), right, rid);
        } else {
          Run(left, lid, right, tall.ChildAt(i));
        }
      }
      return;
    }
    const Rect common = geom::IntersectionOf(l.Mbr(), r.Mbr());
    for (const SoaNode* node : {&l, &r}) {
      size_t candidates = 0;
      for (size_t i = 0; i < node->count(); ++i) {
        candidates += node->RectAt(i).Intersects(common) ? 1 : 0;
      }
      max_candidates = std::max(max_candidates, candidates);
    }
    for (size_t i = 0; i < l.count(); ++i) {
      for (size_t j = 0; j < r.count(); ++j) {
        if (!l.RectAt(i).Intersects(r.RectAt(j))) continue;
        if (l.is_leaf()) {
          pairs.push_back({l.RidAt(i).page_id, r.RidAt(j).page_id});
        } else {
          Run(left, l.ChildAt(i), right, r.ChildAt(j));
        }
      }
    }
  }

  RidSeq pairs;
  uint64_t nodes_visited = 0;
  /// The most entries of one node inside an equal-level pair's common
  /// region.
  size_t max_candidates = 0;
};

/// Joins `left` with `right` (both on `pool`) and checks the pairs, their
/// order and the counters against the full pair scan, which decodes
/// every node afresh. Returns the scan for further checks.
FullPairScan ExpectJoinMatchesFullPairScan(const RTree& left,
                                           const RTree& right,
                                           const storage::BufferPool& pool) {
  FullPairScan reference;
  reference.Run(left, left.root(), right, right.root());
  EXPECT_FALSE(reference.pairs.empty()) << "vacuous comparison";

  RidSeq got;
  JoinStats stats;
  const uint64_t fetches_before = pool.stats().fetches.load();
  const uint64_t mbrs_before = MbrComputeCountForTesting();
  EXPECT_TRUE(SpatialJoin(left, right,
                          [&got](const LeafHit& l, const LeafHit& r) {
                            got.push_back({l.rid.page_id, r.rid.page_id});
                          },
                          &stats)
                  .ok());
  const uint64_t mbrs = MbrComputeCountForTesting() - mbrs_before;
  const uint64_t fetches = pool.stats().fetches.load() - fetches_before;

  EXPECT_EQ(got, reference.pairs);
  EXPECT_EQ(stats.nodes_visited, reference.nodes_visited);
  EXPECT_EQ(stats.results, reference.pairs.size());
  EXPECT_FALSE(stats.degraded);
  // A reused node is neither fetched nor decoded again, and its bound
  // is computed once per decode: no per-entry or per-frame recompute.
  EXPECT_LE(fetches, stats.nodes_visited);
  EXPECT_LE(mbrs, fetches);
  return reference;
}

TEST(JoinTest, RestrictedJoinMatchesFullPairScan) {
  Env env;
  Random rng(1985);
  RTree a = BuildAdversarialTree(&env, &rng, 400);
  RTree b = BuildAdversarialTree(&env, &rng, 15);
  ASSERT_NE(a.Height(), b.Height());
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar kernels" : "active kernels");
    std::optional<simd::ScopedKernelOverride> force;
    if (scalar) force.emplace(&simd::ScalarKernels());
    ExpectJoinMatchesFullPairScan(a, b, env.pool);
    ExpectJoinMatchesFullPairScan(b, a, env.pool);
    ExpectJoinMatchesFullPairScan(a, a, env.pool);
  }
}

TEST(JoinTest, ReusedNodesMatchFreshDecodes) {
  // Nodes of up to 200 entries on 8 KiB pages: an equal-level pair has
  // more than 64 candidates on a side, so row bitmaps span several
  // words, and both sides' candidate counts vary from pair to pair, so
  // each side is the one looped over somewhere.
  Env env(8192);
  Random rng(2024);
  RTree a = BuildAdversarialTree(&env, &rng, 3000, 200);
  RTree b = BuildAdversarialTree(&env, &rng, 120, 200);
  ASSERT_NE(a.Height(), b.Height());
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar kernels" : "active kernels");
    std::optional<simd::ScopedKernelOverride> force;
    if (scalar) force.emplace(&simd::ScalarKernels());
    size_t max_candidates = 0;
    for (const auto& [left, right] :
         {std::pair{&a, &b}, std::pair{&b, &a}, std::pair{&a, &a}}) {
      max_candidates = std::max(
          max_candidates,
          ExpectJoinMatchesFullPairScan(*left, *right, env.pool)
              .max_candidates);
    }
    EXPECT_GT(max_candidates, 64u);
  }

  // A few-leaf overlay over a packed point tree: consecutive pair
  // frames share a side, so far fewer pages are fetched than visited.
  std::vector<Rect> points;
  for (const auto& p :
       workload::UniformPoints(&rng, 5000, workload::PaperFrame())) {
    points.push_back(Rect::FromPoint(p));
  }
  std::vector<Rect> overlay;
  for (const auto& c :
       workload::UniformPoints(&rng, 300, workload::PaperFrame())) {
    overlay.push_back(Rect::FromCenterHalfExtent(c.x, 20, c.y, 20));
  }
  RTree objects = MakeTree(&env, points, true, 50);
  RTree rects = MakeTree(&env, overlay, true, 50);
  ASSERT_GT(objects.Height(), rects.Height());
  for (const auto& [left, right] :
       {std::pair{&objects, &rects}, std::pair{&rects, &objects}}) {
    JoinStats stats;
    const uint64_t fetches_before = env.pool.stats().fetches.load();
    EXPECT_FALSE(RunJoin(*left, *right, false, &stats).empty());
    const uint64_t fetches = env.pool.stats().fetches.load() - fetches_before;
    EXPECT_LT(fetches, stats.nodes_visited);
    EXPECT_EQ(RunJoin(*left, *right, false), RunJoin(*left, *right, true));
  }
}

TEST(JoinTest, InvalidChildPointerIsNeverAReusedNode) {
  // kInvalidPageId marks an empty reuse slot. A child pointer holding it
  // must reach the page load and be skipped as unreadable, not be served
  // whatever node an empty slot last held.
  Env env;
  auto created = RTree::Create(&env.pool, RTreeOptions{});
  PICTDB_CHECK(created.ok());
  RTree left = std::move(created).value();
  const auto write_leaf = [&left](storage::PageId first) {
    std::vector<Entry> entries;
    for (storage::PageId i = first; i < first + 3; ++i) {
      Entry e;
      e.mbr = Rect(i, i, i + 1, i + 1);
      e.payload = Entry::PayloadFromRid(Rid{i, 0});
      entries.push_back(e);
    }
    auto id = left.BulkWriteNode(0, entries);
    PICTDB_CHECK(id.ok());
    return *id;
  };
  const storage::PageId children[] = {write_leaf(0), storage::kInvalidPageId,
                                      write_leaf(10)};
  std::vector<Entry> root;
  for (const storage::PageId child : children) {
    Entry e;
    e.mbr = Rect(0, 0, 20, 20);
    e.payload = Entry::PayloadFromChild(child);
    root.push_back(e);
  }
  auto root_id = left.BulkWriteNode(1, root);
  ASSERT_TRUE(root_id.ok());
  ASSERT_TRUE(left.BulkSetRoot(*root_id, 2, 6).ok());
  RTree right = MakeTree(&env, {Rect(0, 0, 20, 20)}, false);

  PairSet got;
  const auto cb = [&got](const LeafHit& l, const LeafHit& r) {
    got.insert({l.rid.page_id, r.rid.page_id});
  };
  JoinStats stats;
  SearchOptions options;
  options.degraded_ok = true;
  ASSERT_TRUE(SpatialJoin(left, right, cb, &stats, options).ok());
  EXPECT_EQ(got.size(), 6u);
  EXPECT_EQ(stats.skipped_subtrees, 1u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_FALSE(SpatialJoin(left, right, cb).ok());
}

}  // namespace
}  // namespace pictdb::rtree
