#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "pack/pack.h"
#include "pack/repack.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

#include "tree_check.h"

namespace pictdb::pack {
namespace {

using geom::Point;
using geom::Rect;
using rtree::RTree;
using rtree::RTreeOptions;
using storage::Rid;
using testing_support::TreeIsValid;

struct Env {
  Env() : disk(512), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

Rid MakeRid(size_t i) {
  return Rid{static_cast<storage::PageId>(i), 0};
}



std::set<storage::PageId> AllRidPages(const RTree& tree) {
  auto hits = tree.CollectAllEntries();
  PICTDB_CHECK(hits.ok());
  std::set<storage::PageId> out;
  for (const auto& h : *hits) out.insert(h.rid.page_id);
  return out;
}

TEST(ClearTest, ResetsToEmptyAndReleasesPages) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(1);
  const auto pts = workload::UniformPoints(&rng, 100,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  const storage::PageId pages_before = env.disk.page_count();
  ASSERT_TRUE(tree->Clear().ok());
  EXPECT_EQ(tree->Size(), 0u);
  EXPECT_EQ(tree->Height(), 1u);
  ASSERT_TRUE(TreeIsValid(*tree));
  // The freed pages are recycled: inserting again should not grow the
  // file much beyond its previous size.
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  EXPECT_LE(env.disk.page_count(), pages_before + 2);
}

TEST(RepackTest, RestoresPackedQualityAfterChurn) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 8;
  opts.min_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(2);
  const auto frame = workload::PaperFrame();
  auto pts = workload::UniformPoints(&rng, 1000, frame);
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) rids.push_back(MakeRid(i));
  ASSERT_TRUE(
      Pack(&*tree, MakeLeafEntries(pts, rids)).ok());
  auto packed_quality = rtree::MeasureTree(*tree);
  ASSERT_TRUE(packed_quality.ok());

  // Churn: delete 400, insert 400 new.
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(tree->Delete(Rect::FromPoint(pts[i]), rids[i]).ok());
  }
  const auto fresh = workload::UniformPoints(&rng, 400, frame);
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_TRUE(
        tree->Insert(Rect::FromPoint(fresh[i]), MakeRid(5000 + i)).ok());
  }
  auto churned_quality = rtree::MeasureTree(*tree);
  ASSERT_TRUE(churned_quality.ok());
  EXPECT_GT(churned_quality->nodes, packed_quality->nodes);

  const auto before = AllRidPages(*tree);
  ASSERT_TRUE(Repack(&*tree).ok());
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(AllRidPages(*tree), before);  // same content
  auto repacked_quality = rtree::MeasureTree(*tree);
  ASSERT_TRUE(repacked_quality.ok());
  // Node count back to the packed optimum for 1000 entries.
  EXPECT_EQ(repacked_quality->size, 1000u);
  EXPECT_LT(repacked_quality->nodes, churned_quality->nodes);
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RepackTest, RepackEmptyTreeIsNoop) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(Repack(&*tree).ok());
  EXPECT_EQ(tree->Size(), 0u);
  ASSERT_TRUE(TreeIsValid(*tree));
}

TEST(RepackRegionTest, LocalReorganizationPreservesContent) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(3);
  const auto pts = workload::UniformPoints(&rng, 300,
                                           workload::PaperFrame());
  // Insert dynamically (so the region is badly organized).
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  const auto before = AllRidPages(*tree);

  const Rect region(200, 200, 600, 600);
  auto repacked = RepackRegion(&*tree, region);
  ASSERT_TRUE(repacked.ok()) << repacked.status().ToString();
  EXPECT_GT(*repacked, 0u);

  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(AllRidPages(*tree), before);
  EXPECT_EQ(tree->Size(), 300u);

  // Every point still individually findable.
  for (size_t i = 0; i < pts.size(); ++i) {
    auto hits = tree->SearchPoint(pts[i]);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& h : *hits) {
      if (h.rid == MakeRid(i)) found = true;
    }
    EXPECT_TRUE(found) << i;
  }
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RepackRegionTest, ImprovesLocalQuality) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(4);
  // Interleave two regions so dynamic insertion mixes them badly.
  const auto left = workload::UniformPoints(&rng, 150,
                                            Rect(0, 0, 300, 1000));
  const auto right = workload::UniformPoints(&rng, 150,
                                             Rect(700, 0, 1000, 1000));
  for (size_t i = 0; i < left.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(left[i]), MakeRid(i)).ok());
    ASSERT_TRUE(
        tree->Insert(Rect::FromPoint(right[i]), MakeRid(1000 + i)).ok());
  }
  auto before = rtree::MeasureTree(*tree);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(RepackRegion(&*tree, Rect(0, 0, 300, 1000)).ok());
  ASSERT_TRUE(RepackRegion(&*tree, Rect(700, 0, 1000, 1000)).ok());
  ASSERT_TRUE(TreeIsValid(*tree));

  auto after = rtree::MeasureTree(*tree);
  ASSERT_TRUE(after.ok());
  EXPECT_LE(after->nodes, before->nodes);
  EXPECT_TRUE(TreeIsValid(*tree));
}

TEST(RepackRegionTest, EmptyRegionRepacksNothing) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 1, 1), MakeRid(1)).ok());
  auto n = RepackRegion(&*tree, Rect(500, 500, 600, 600));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(RepackPolicyTest, TriggersAtThreshold) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(5);
  const auto pts = workload::UniformPoints(&rng, 100,
                                           workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) rids.push_back(MakeRid(i));
  ASSERT_TRUE(
      Pack(&*tree, MakeLeafEntries(pts, rids)).ok());

  RepackPolicy policy(/*threshold_fraction=*/0.25);
  EXPECT_FALSE(policy.ShouldRepack(*tree));
  policy.RecordUpdate(10);
  auto fired = policy.MaybeRepack(&*tree);
  ASSERT_TRUE(fired.ok());
  EXPECT_FALSE(*fired);  // 10 < 25
  policy.RecordUpdate(20);
  fired = policy.MaybeRepack(&*tree);
  ASSERT_TRUE(fired.ok());
  EXPECT_TRUE(*fired);  // 30 >= 25
  EXPECT_EQ(policy.updates(), 0u);  // counter reset
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(tree->Size(), 100u);
}

}  // namespace
}  // namespace pictdb::pack
