#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "rtree/metrics.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "rtree/split.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

#include "tree_check.h"

namespace pictdb::rtree {
namespace {

using geom::Point;
using geom::Rect;
using storage::Rid;
using testing_support::TreeIsValid;

struct Env {
  explicit Env(uint32_t page_size = 512)
      : disk(page_size), pool(&disk, 4096) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

Rid MakeRid(size_t i) {
  return Rid{static_cast<storage::PageId>(i), 0};
}

// --- Node serialization --------------------------------------------------------

TEST(NodeTest, RoundTrip) {
  Node node;
  node.level = 3;
  for (int i = 0; i < 5; ++i) {
    Entry e;
    e.mbr = Rect(i, i, i + 1, i + 2);
    e.payload = static_cast<uint64_t>(i) * 1000;
    node.entries.push_back(e);
  }
  std::vector<char> page(512, 0);
  WriteNode(node, page.data(), 512);
  const Node loaded = ReadNode(page.data(), 512).value();
  EXPECT_EQ(loaded.level, 3);
  ASSERT_EQ(loaded.entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.entries[i].mbr, node.entries[i].mbr);
    EXPECT_EQ(loaded.entries[i].payload, node.entries[i].payload);
  }
}

TEST(NodeTest, PayloadEncodings) {
  const Rid rid{123456, 789};
  Entry e;
  e.payload = Entry::PayloadFromRid(rid);
  EXPECT_TRUE(e.AsRid() == rid);
  e.payload = Entry::PayloadFromChild(424242);
  EXPECT_EQ(e.AsChild(), 424242u);
}

TEST(NodeTest, CapacityScalesWithPageSize) {
  EXPECT_GT(NodePageCapacity(4096), NodePageCapacity(512));
  EXPECT_GE(NodePageCapacity(256), 4u);  // paper's branching factor fits
}

TEST(NodeTest, MbrOfEntries) {
  Node node;
  Entry a, b;
  a.mbr = Rect(0, 0, 2, 2);
  b.mbr = Rect(5, 1, 6, 8);
  node.entries = {a, b};
  EXPECT_EQ(node.Mbr(), Rect(0, 0, 6, 8));
  EXPECT_TRUE(Node{}.Mbr().IsEmpty());
}

// --- Split heuristics -----------------------------------------------------------

std::vector<Entry> EntriesFor(const std::vector<Rect>& rects) {
  std::vector<Entry> out;
  for (size_t i = 0; i < rects.size(); ++i) {
    Entry e;
    e.mbr = rects[i];
    e.payload = i;
    out.push_back(e);
  }
  return out;
}

TEST(SplitTest, QuadraticSeedsPickWastefulPair) {
  // Two far corners waste the most area together.
  const auto entries = EntriesFor({Rect(0, 0, 1, 1), Rect(9, 9, 10, 10),
                                   Rect(0.5, 0.5, 1.5, 1.5)});
  const auto [i, j] = QuadraticPickSeeds(entries);
  const std::set<size_t> seeds = {i, j};
  EXPECT_TRUE(seeds.count(1) == 1);
  EXPECT_TRUE(seeds.count(0) == 1 || seeds.count(2) == 1);
}

TEST(SplitTest, AllAlgorithmsRespectMinimum) {
  Random rng(5);
  for (const auto algo : {SplitAlgorithm::kQuadratic,
                          SplitAlgorithm::kLinear,
                          SplitAlgorithm::kRStar}) {
    std::vector<Rect> rects;
    for (int i = 0; i < 9; ++i) {
      const double x = rng.UniformDouble(0, 100);
      const double y = rng.UniformDouble(0, 100);
      rects.push_back(Rect(x, y, x + 5, y + 5));
    }
    const auto [g1, g2] = SplitEntries(EntriesFor(rects), 4, algo);
    EXPECT_GE(g1.size(), 4u);
    EXPECT_GE(g2.size(), 4u);
    EXPECT_EQ(g1.size() + g2.size(), 9u);
  }
}

TEST(SplitTest, PartitionsPreserveAllEntries) {
  Random rng(6);
  std::vector<Rect> rects;
  for (int i = 0; i < 11; ++i) {
    const double x = rng.UniformDouble(0, 100);
    rects.push_back(Rect(x, x, x + 3, x + 3));
  }
  const auto [g1, g2] =
      SplitEntries(EntriesFor(rects), 2, SplitAlgorithm::kQuadratic);
  std::set<uint64_t> payloads;
  for (const Entry& e : g1) payloads.insert(e.payload);
  for (const Entry& e : g2) payloads.insert(e.payload);
  EXPECT_EQ(payloads.size(), 11u);
}

TEST(SplitTest, SeparatesTwoClusters) {
  // Quadratic and R* splits should cleanly separate two distant clusters.
  std::vector<Rect> rects;
  for (int i = 0; i < 4; ++i) {
    rects.push_back(Rect(i, 0, i + 0.5, 0.5));          // left cluster
    rects.push_back(Rect(100 + i, 0, 100.5 + i, 0.5));  // right cluster
  }
  for (const auto algo :
       {SplitAlgorithm::kQuadratic, SplitAlgorithm::kRStar}) {
    const auto [g1, g2] = SplitEntries(EntriesFor(rects), 2, algo);
    auto side_of = [](const Entry& e) { return e.mbr.lo.x < 50 ? 0 : 1; };
    for (const auto& group : {g1, g2}) {
      for (size_t i = 1; i < group.size(); ++i) {
        EXPECT_EQ(side_of(group[i]), side_of(group[0]));
      }
    }
  }
}

TEST(SplitTest, RStarProducesZeroOverlapWhenPossible) {
  // Two vertical bands of boxes: a y-axis cut would overlap, an x-axis
  // cut would not; R* must choose the x axis and an overlap-free cut.
  std::vector<Rect> rects;
  for (int i = 0; i < 5; ++i) {
    rects.push_back(Rect(0, i * 10.0, 5, i * 10.0 + 5));
    rects.push_back(Rect(50, i * 10.0 + 2, 55, i * 10.0 + 7));
  }
  const auto [g1, g2] =
      SplitEntries(EntriesFor(rects), 2, SplitAlgorithm::kRStar);
  Rect mbr1, mbr2;
  for (const Entry& e : g1) mbr1.ExpandToInclude(e.mbr);
  for (const Entry& e : g2) mbr2.ExpandToInclude(e.mbr);
  EXPECT_FALSE(mbr1.IntersectsInterior(mbr2));
}

// --- RTree create/options --------------------------------------------------------

TEST(RTreeTest, CreateValidatesOptions) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 10000;  // too large for the page
  EXPECT_FALSE(RTree::Create(&env.pool, opts).ok());
  opts.max_entries = 4;
  opts.min_entries = 3;  // violates m <= M/2
  EXPECT_FALSE(RTree::Create(&env.pool, opts).ok());
  opts.min_entries = 2;
  EXPECT_TRUE(RTree::Create(&env.pool, opts).ok());
}

TEST(RTreeTest, EmptyTree) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Size(), 0u);
  EXPECT_EQ(tree->Height(), 1u);
  auto hits = tree->SearchIntersects(Rect(0, 0, 100, 100));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, InsertRejectsEmptyRect) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->Insert(Rect(), MakeRid(0)).IsInvalidArgument());
}

TEST(RTreeTest, SingleInsertAndSearch) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(10, 10, 20, 20), MakeRid(7)).ok());
  EXPECT_EQ(tree->Size(), 1u);

  auto hit = tree->SearchIntersects(Rect(15, 15, 16, 16));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_TRUE((*hit)[0].rid == MakeRid(7));

  auto miss = tree->SearchIntersects(Rect(30, 30, 40, 40));
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
}

TEST(RTreeTest, SearchSemanticsDiffer) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 10, 10), MakeRid(1)).ok());
  const Rect window(5, 5, 15, 15);
  // Intersects: yes; ContainedIn: no (object pokes out of the window).
  EXPECT_EQ(tree->SearchIntersects(window)->size(), 1u);
  EXPECT_EQ(tree->SearchContainedIn(window)->size(), 0u);
  EXPECT_EQ(tree->SearchContainedIn(Rect(0, 0, 10, 10))->size(), 1u);
  EXPECT_EQ(tree->SearchPoint(Point{3, 3})->size(), 1u);
  EXPECT_EQ(tree->SearchPoint(Point{13, 3})->size(), 0u);
}

TEST(RTreeTest, GrowsAndValidates) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(17);
  const auto pts = workload::UniformPoints(&rng, 200,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
    if (i % 25 == 0) {
      ASSERT_TRUE(TreeIsValid(*tree));
    }
  }
  EXPECT_EQ(tree->Size(), 200u);
  EXPECT_GE(tree->Height(), 3u);
  ASSERT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, SearchMatchesBruteForce) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(23);
  std::vector<Rect> objects;
  for (int i = 0; i < 150; ++i) {
    const double x = rng.UniformDouble(0, 900);
    const double y = rng.UniformDouble(0, 900);
    objects.push_back(
        Rect(x, y, x + rng.UniformDouble(1, 80), y + rng.UniformDouble(1, 80)));
    ASSERT_TRUE(tree->Insert(objects.back(), MakeRid(i)).ok());
  }
  for (int trial = 0; trial < 50; ++trial) {
    const double x = rng.UniformDouble(0, 900);
    const double y = rng.UniformDouble(0, 900);
    const Rect window(x, y, x + 120, y + 120);
    auto hits = tree->SearchIntersects(window);
    ASSERT_TRUE(hits.ok());
    std::set<storage::PageId> got;
    for (const LeafHit& h : *hits) got.insert(h.rid.page_id);
    std::set<storage::PageId> expected;
    for (size_t i = 0; i < objects.size(); ++i) {
      if (objects[i].Intersects(window)) {
        expected.insert(static_cast<storage::PageId>(i));
      }
    }
    EXPECT_EQ(got, expected) << "window " << geom::ToString(window);
  }
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, DeleteRemovesAndCondenses) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(31);
  const auto pts = workload::UniformPoints(&rng, 120,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  // Delete half, validating as we go.
  for (size_t i = 0; i < pts.size(); i += 2) {
    ASSERT_TRUE(tree->Delete(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
    if (i % 20 == 0) {
      ASSERT_TRUE(TreeIsValid(*tree));
    }
  }
  EXPECT_EQ(tree->Size(), 60u);
  ASSERT_TRUE(TreeIsValid(*tree));
  // Survivors still findable; deleted not.
  for (size_t i = 0; i < pts.size(); ++i) {
    auto hits = tree->SearchPoint(pts[i]);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const LeafHit& h : *hits) {
      if (h.rid == MakeRid(i)) found = true;
    }
    EXPECT_EQ(found, i % 2 == 1) << i;
  }
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, DeleteMissingEntry) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 1, 1), MakeRid(1)).ok());
  EXPECT_TRUE(tree->Delete(Rect(0, 0, 1, 1), MakeRid(2)).IsNotFound());
  EXPECT_TRUE(tree->Delete(Rect(5, 5, 6, 6), MakeRid(1)).IsNotFound());
}

TEST(RTreeTest, DeleteEverythingLeavesEmptyValidTree) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(37);
  const auto pts = workload::UniformPoints(&rng, 80, workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Delete(Rect::FromPoint(pts[i]), MakeRid(i)).ok()) << i;
  }
  EXPECT_EQ(tree->Size(), 0u);
  EXPECT_EQ(tree->Height(), 1u);
  ASSERT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, DeleteClusterUnderflowsNonLeafLevels) {
  // Two well-separated clusters in a tall tree (small fanout): wiping
  // out one whole cluster underflows nodes ABOVE the leaf level, so
  // CondenseTree must re-insert orphaned subtrees at their original
  // height, not as leaf entries. The survivors and the invariants tell
  // us whether it did.
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  constexpr size_t kPerCluster = 150;
  Random rng(41);
  for (size_t i = 0; i < kPerCluster; ++i) {  // cluster A near origin
    const Point p(rng.UniformDouble(0.0, 100.0), rng.UniformDouble(0.0, 100.0));
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(p), MakeRid(i)).ok());
  }
  std::vector<Point> far;
  for (size_t i = 0; i < kPerCluster; ++i) {  // cluster B far away
    const Point p(rng.UniformDouble(5000.0, 5100.0), rng.UniformDouble(5000.0, 5100.0));
    far.push_back(p);
    ASSERT_TRUE(
        tree->Insert(Rect::FromPoint(p), MakeRid(kPerCluster + i)).ok());
  }
  const uint32_t tall = tree->Height();
  ASSERT_GE(tall, 3u) << "workload too small to exercise inner levels";

  // Delete every cluster-B entry; inner nodes over that region drain.
  for (size_t i = 0; i < kPerCluster; ++i) {
    ASSERT_TRUE(
        tree->Delete(Rect::FromPoint(far[i]), MakeRid(kPerCluster + i)).ok())
        << i;
    if (i % 16 == 0) {
      ASSERT_TRUE(TreeIsValid(*tree));
    }
  }
  EXPECT_EQ(tree->Size(), kPerCluster);
  EXPECT_LE(tree->Height(), tall);  // root collapses as levels empty
  EXPECT_TRUE(TreeIsValid(*tree));
  // Cluster A intact, cluster B gone.
  auto a = tree->SearchIntersects(Rect(0, 0, 100, 100));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size(), kPerCluster);
  auto b = tree->SearchIntersects(Rect(5000, 5000, 5100, 5100));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
}

TEST(RTreeTest, UpdateMovesEntry) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(43);
  const auto pts = workload::UniformPoints(&rng, 100, workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  // Move entry 7 to a spot far outside the frame.
  const Rect old_mbr = Rect::FromPoint(pts[7]);
  const Rect new_mbr(9000, 9000, 9001, 9001);
  ASSERT_TRUE(tree->Update(old_mbr, MakeRid(7), new_mbr, MakeRid(7)).ok());
  EXPECT_EQ(tree->Size(), pts.size());
  auto at_old = tree->Contains(old_mbr, MakeRid(7));
  ASSERT_TRUE(at_old.ok());
  EXPECT_FALSE(*at_old);
  auto at_new = tree->Contains(new_mbr, MakeRid(7));
  ASSERT_TRUE(at_new.ok());
  EXPECT_TRUE(*at_new);
  EXPECT_TRUE(TreeIsValid(*tree));

  // Updating a non-existent entry is NotFound and changes nothing.
  EXPECT_TRUE(tree->Update(old_mbr, MakeRid(7), new_mbr, MakeRid(7))
                  .IsNotFound());
  EXPECT_EQ(tree->Size(), pts.size());
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RTreeTest, ContainsIsExactMatch) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 10, 10), MakeRid(1)).ok());
  auto hit = tree->Contains(Rect(0, 0, 10, 10), MakeRid(1));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  // Same rid, different mbr — and a sub-rect that intersects but does
  // not equal — are both misses: the probe is exact, not spatial.
  auto wrong_mbr = tree->Contains(Rect(0, 0, 5, 5), MakeRid(1));
  ASSERT_TRUE(wrong_mbr.ok());
  EXPECT_FALSE(*wrong_mbr);
  auto wrong_rid = tree->Contains(Rect(0, 0, 10, 10), MakeRid(2));
  ASSERT_TRUE(wrong_rid.ok());
  EXPECT_FALSE(*wrong_rid);
}

TEST(RTreeTest, SearchStatsCountNodes) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(41);
  const auto pts = workload::UniformPoints(&rng, 100,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  SearchStats stats;
  ASSERT_TRUE(tree->SearchPoint(Point{500, 500}, &stats).ok());
  EXPECT_GE(stats.nodes_visited, 1u);
  auto total = tree->CountNodes();
  ASSERT_TRUE(total.ok());
  EXPECT_LE(stats.nodes_visited, *total);
}

TEST(RTreeTest, OpenFromMetaPage) {
  Env env(256);
  storage::PageId meta;
  {
    RTreeOptions opts;
    opts.max_entries = 4;
    auto tree = RTree::Create(&env.pool, opts);
    ASSERT_TRUE(tree.ok());
    meta = tree->meta_page();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          tree->Insert(Rect(i, i, i + 1, i + 1), MakeRid(i)).ok());
    }
  }
  auto reopened = RTree::Open(&env.pool, meta);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Size(), 50u);
  EXPECT_EQ(reopened->options().max_entries, 4u);
  ASSERT_TRUE(TreeIsValid(*reopened));
  EXPECT_EQ(reopened->SearchPoint(Point{10.5, 10.5})->size(), 1u);
}

TEST(RTreeTest, LinearSplitAlsoWorks) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.split = SplitAlgorithm::kLinear;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(43);
  const auto pts = workload::UniformPoints(&rng, 150,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(tree->CollectAllEntries()->size(), 150u);
}

TEST(RTreeTest, CollectNodeMbrsAtLevels) {
  Env env(256);
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(47);
  const auto pts = workload::UniformPoints(&rng, 100,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  size_t total_from_levels = 0;
  for (uint16_t level = 0; level < tree->Height(); ++level) {
    auto mbrs = tree->CollectNodeMbrsAtLevel(level);
    ASSERT_TRUE(mbrs.ok());
    EXPECT_FALSE(mbrs->empty());
    total_from_levels += mbrs->size();
    // Level counts shrink toward the root.
    if (level + 1u == tree->Height()) {
      EXPECT_EQ(mbrs->size(), 1u);
    }
  }
  auto nodes = tree->CountNodes();
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(total_from_levels, *nodes);
}

TEST(MetricsTest, MeasuresSimpleTree) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 10, 10), MakeRid(1)).ok());
  ASSERT_TRUE(tree->Insert(Rect(20, 20, 30, 30), MakeRid(2)).ok());
  auto q = MeasureTree(*tree);
  ASSERT_TRUE(q.ok());
  // Single leaf node: coverage = MBR of both objects.
  EXPECT_DOUBLE_EQ(q->coverage, 900.0);
  EXPECT_DOUBLE_EQ(q->overlap, 0.0);
  EXPECT_EQ(q->depth, 0u);
  EXPECT_EQ(q->nodes, 1u);
  EXPECT_EQ(q->size, 2u);
}

TEST(MetricsTest, AverageNodesVisited) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 1, 1), MakeRid(1)).ok());
  auto avg = AverageNodesVisited(*tree, {{0.5, 0.5}, {50, 50}});
  ASSERT_TRUE(avg.ok());
  // Height-1 tree: the root itself is read by every query.
  EXPECT_DOUBLE_EQ(*avg, 1.0);
}

}  // namespace
}  // namespace pictdb::rtree
