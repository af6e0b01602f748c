#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/random.h"
#include "pack/pack.h"
#include "rtree/join.h"
#include "rtree/rtree.h"
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

}  // namespace
}  // namespace pictdb::rtree
