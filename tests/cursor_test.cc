#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "pack/pack.h"
#include "rtree/cursor.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::rtree {
namespace {

using geom::Point;
using geom::Rect;
using storage::Rid;

struct Env {
  Env() : disk(512), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

RTree MakeTree(Env* env, const std::vector<Point>& pts) {
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env->pool, opts);
  PICTDB_CHECK(tree.ok());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  PICTDB_CHECK_OK(pack::Pack(
      &*tree, pack::MakeLeafEntries(pts, rids)));
  return std::move(tree).value();
}

TEST(SearchCursorTest, EmptyTreeYieldsNothing) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  SearchCursor cursor = SearchCursor::Intersects(&*tree, Rect(0, 0, 10, 10));
  auto next = cursor.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  // Repeated Next at end stays at end.
  next = cursor.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
}

TEST(SearchCursorTest, StreamsSameResultsAsBatchSearch) {
  Env env;
  Random rng(13);
  const auto pts = workload::UniformPoints(&rng, 300,
                                           workload::PaperFrame());
  RTree tree = MakeTree(&env, pts);
  const Rect window(200, 200, 700, 700);

  auto batch = tree.SearchIntersects(window);
  ASSERT_TRUE(batch.ok());
  std::set<storage::PageId> expected;
  for (const auto& h : *batch) expected.insert(h.rid.page_id);

  SearchCursor cursor = SearchCursor::Intersects(&tree, window);
  std::set<storage::PageId> streamed;
  for (;;) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    EXPECT_TRUE(streamed.insert((**next).rid.page_id).second)
        << "duplicate hit";
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(cursor.stats().results, expected.size());
}

TEST(SearchCursorTest, EarlyTerminationVisitsFewerNodes) {
  Env env;
  Random rng(17);
  const auto pts = workload::UniformPoints(&rng, 1000,
                                           workload::PaperFrame());
  RTree tree = MakeTree(&env, pts);

  // LIMIT 5 over a query matching everything.
  SearchCursor cursor =
      SearchCursor::Intersects(&tree, workload::PaperFrame());
  for (int i = 0; i < 5; ++i) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
  }
  auto total = tree.CountNodes();
  ASSERT_TRUE(total.ok());
  EXPECT_LT(cursor.stats().nodes_visited, *total / 10)
      << "early-terminated cursor should not touch most of the tree";
}

TEST(SearchCursorTest, ContainedInSemantics) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 10, 10), Rid{1, 0}).ok());
  ASSERT_TRUE(tree->Insert(Rect(5, 5, 25, 25), Rid{2, 0}).ok());

  SearchCursor cursor =
      SearchCursor::ContainedIn(&*tree, Rect(-1, -1, 12, 12));
  auto first = cursor.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((**first).rid.page_id, 1u);
  auto end = cursor.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

/// Drain `cursor`, returning the hits in stream order.
std::vector<LeafHit> Drain(SearchCursor* cursor) {
  std::vector<LeafHit> out;
  for (;;) {
    auto next = cursor->Next();
    PICTDB_CHECK(next.ok());
    if (!next->has_value()) return out;
    out.push_back(**next);
  }
}

void ExpectSameStream(const std::vector<LeafHit>& streamed,
                      const std::vector<LeafHit>& one_shot) {
  ASSERT_EQ(streamed.size(), one_shot.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].mbr, one_shot[i].mbr) << "position " << i;
    EXPECT_EQ(streamed[i].rid, one_shot[i].rid) << "position " << i;
  }
}

void ExpectSameStats(const SearchStats& a, const SearchStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.entries_tested, b.entries_tested);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.skipped_subtrees, b.skipped_subtrees);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(SearchCursorTest, StreamsExactlyTheOneShotVectors) {
  Env env;
  Random rng(23);
  const auto pts = workload::UniformPoints(&rng, 2000,
                                           workload::PaperFrame());
  RTree tree = MakeTree(&env, pts);
  size_t nonempty = 0;
  for (int i = 0; i < 20; ++i) {
    const Rect window = Rect::FromCenterHalfExtent(
        rng.UniformDouble(0, 1000), rng.UniformDouble(5, 150),
        rng.UniformDouble(0, 1000), rng.UniformDouble(5, 150));

    SearchStats one_shot_stats;
    auto one_shot = tree.SearchIntersects(window, &one_shot_stats);
    ASSERT_TRUE(one_shot.ok());
    SearchCursor cursor = SearchCursor::Intersects(&tree, window);
    ExpectSameStream(Drain(&cursor), *one_shot);
    ExpectSameStats(cursor.stats(), one_shot_stats);
    if (!one_shot->empty()) ++nonempty;

    SearchStats contained_stats;
    auto contained = tree.SearchContainedIn(window, &contained_stats);
    ASSERT_TRUE(contained.ok());
    SearchCursor contained_cursor = SearchCursor::ContainedIn(&tree, window);
    ExpectSameStream(Drain(&contained_cursor), *contained);
    ExpectSameStats(contained_cursor.stats(), contained_stats);
  }
  EXPECT_GT(nonempty, 10u) << "vacuous stream comparison";
}

}  // namespace
}  // namespace pictdb::rtree
