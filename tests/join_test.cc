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
  Env() : disk(512), pool(&disk, 8192) {}
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
RTree BuildAdversarialTree(Env* env, Random* rng, size_t n) {
  RTreeOptions opts;
  opts.max_entries = 8;
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
      const size_t take =
          std::min<size_t>(1 + rng->Uniform(8), entries.size() - at);
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
      ++unequal_visits;
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
    ++equal_visits;
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
  uint64_t equal_visits = 0;
  uint64_t unequal_visits = 0;
};

void ExpectJoinMatchesFullPairScan(const RTree& left, const RTree& right) {
  FullPairScan reference;
  reference.Run(left, left.root(), right, right.root());
  ASSERT_FALSE(reference.pairs.empty()) << "vacuous comparison";

  RidSeq got;
  JoinStats stats;
  const uint64_t mbrs_before = MbrComputeCountForTesting();
  ASSERT_TRUE(SpatialJoin(left, right,
                          [&got](const LeafHit& l, const LeafHit& r) {
                            got.push_back({l.rid.page_id, r.rid.page_id});
                          },
                          &stats)
                  .ok());
  const uint64_t mbrs = MbrComputeCountForTesting() - mbrs_before;

  EXPECT_EQ(got, reference.pairs);
  EXPECT_EQ(stats.nodes_visited, reference.nodes_visited);
  EXPECT_EQ(stats.results, reference.pairs.size());
  EXPECT_FALSE(stats.degraded);
  // Two bounds per equal-level pair, one per unequal-level pair: no
  // per-entry recomputation.
  EXPECT_LE(mbrs, 2 * reference.equal_visits + reference.unequal_visits);
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
    ExpectJoinMatchesFullPairScan(a, b);
    ExpectJoinMatchesFullPairScan(b, a);
    ExpectJoinMatchesFullPairScan(a, a);
  }
}

}  // namespace
}  // namespace pictdb::rtree
