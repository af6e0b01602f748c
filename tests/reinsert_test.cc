// R*-style forced reinsertion: correctness under churn, persistence of
// the option, and the quality improvement it exists for.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"
#include "workload/queries.h"

#include "tree_check.h"

namespace pictdb::rtree {
namespace {

using geom::Point;
using geom::Rect;
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

RTreeOptions Options(bool reinsert, SplitAlgorithm split =
                                        SplitAlgorithm::kQuadratic) {
  RTreeOptions opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  opts.split = split;
  opts.forced_reinsert = reinsert;
  return opts;
}

TEST(ReinsertTest, TreeStaysValidAndComplete) {
  Env env;
  auto tree = RTree::Create(&env.pool, Options(true));
  ASSERT_TRUE(tree.ok());
  Random rng(91);
  const auto pts = workload::UniformPoints(&rng, 400,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
    if (i % 50 == 0) {
      ASSERT_TRUE(TreeIsValid(*tree)) << "after insert " << i;
    }
  }
  EXPECT_EQ(tree->Size(), pts.size());
  ASSERT_TRUE(TreeIsValid(*tree));
  // Everything findable.
  for (size_t i = 0; i < pts.size(); ++i) {
    auto hits = tree->SearchPoint(pts[i]);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& h : *hits) {
      if (h.rid == MakeRid(i)) found = true;
    }
    ASSERT_TRUE(found) << i;
  }
}

TEST(ReinsertTest, DeletesStillWork) {
  Env env;
  auto tree = RTree::Create(&env.pool, Options(true));
  ASSERT_TRUE(tree.ok());
  Random rng(92);
  const auto pts = workload::UniformPoints(&rng, 200,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  for (size_t i = 0; i < pts.size(); i += 2) {
    ASSERT_TRUE(tree->Delete(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  EXPECT_EQ(tree->Size(), pts.size() / 2);
  ASSERT_TRUE(TreeIsValid(*tree));
}

TEST(ReinsertTest, OptionPersistsAcrossOpen) {
  Env env;
  storage::PageId meta;
  {
    auto tree = RTree::Create(&env.pool, Options(true));
    ASSERT_TRUE(tree.ok());
    meta = tree->meta_page();
  }
  auto reopened = RTree::Open(&env.pool, meta);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->options().forced_reinsert);
}

TEST(ReinsertTest, ImprovesDynamicTreeQuality) {
  // On clustered arrivals, forced reinsertion should reduce window-query
  // node visits relative to plain quadratic INSERT (seed-pinned).
  Random rng(93);
  const auto frame = workload::PaperFrame();
  auto pts = workload::ClusteredPoints(&rng, 2000, 10, 30.0, frame);
  const auto windows = workload::RandomWindowQueries(&rng, 300, 0.01, frame);

  auto window_cost = [&windows](const RTree& tree) {
    uint64_t visits = 0;
    for (const Rect& w : windows) {
      SearchStats stats;
      PICTDB_CHECK_OK(tree.SearchIntersects(w, &stats).status());
      visits += stats.nodes_visited;
    }
    return visits;
  };

  Env env;
  auto plain = RTree::Create(&env.pool, Options(false));
  auto reinserting = RTree::Create(&env.pool, Options(true));
  ASSERT_TRUE(plain.ok() && reinserting.ok());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(plain->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
    ASSERT_TRUE(
        reinserting->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  ASSERT_TRUE(TreeIsValid(*reinserting));
  EXPECT_LT(window_cost(*reinserting), window_cost(*plain));
}

TEST(ReinsertTest, CombinesWithRStarSplit) {
  Env env;
  auto tree = RTree::Create(&env.pool,
                            Options(true, SplitAlgorithm::kRStar));
  ASSERT_TRUE(tree.ok());
  Random rng(94);
  const auto pts = workload::UniformPoints(&rng, 300,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]), MakeRid(i)).ok());
  }
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(tree->CollectAllEntries()->size(), 300u);
}

}  // namespace
}  // namespace pictdb::rtree
