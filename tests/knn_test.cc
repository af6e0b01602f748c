#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "geom/distance.h"
#include "pack/pack.h"
#include "rtree/knn.h"
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

Rid MakeRid(size_t i) {
  return Rid{static_cast<storage::PageId>(i), 0};
}

RTree MakeTree(Env* env, const std::vector<Point>& pts, bool packed) {
  RTreeOptions opts;
  opts.max_entries = 6;
  opts.min_entries = 3;
  auto tree = RTree::Create(&env->pool, opts);
  PICTDB_CHECK(tree.ok());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  if (packed) {
    PICTDB_CHECK_OK(pack::Pack(
        &*tree, pack::MakeLeafEntries(pts, rids)));
  } else {
    for (size_t i = 0; i < pts.size(); ++i) {
      PICTDB_CHECK_OK(tree->Insert(Rect::FromPoint(pts[i]), rids[i]));
    }
  }
  return std::move(tree).value();
}

TEST(KnnTest, EmptyTreeAndZeroK) {
  Env env;
  RTree tree = MakeTree(&env, {}, false);
  auto none = SearchNearest(tree, Point{0, 0}, 5);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  RTree one = MakeTree(&env, {{1, 1}}, false);
  auto zero = SearchNearest(one, Point{0, 0}, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
}

TEST(KnnTest, SingleNearest) {
  Env env;
  RTree tree = MakeTree(&env, {{0, 0}, {10, 0}, {0, 10}, {50, 50}}, false);
  auto nn = SearchNearest(tree, Point{9, 1}, 1);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->size(), 1u);
  EXPECT_EQ((*nn)[0].hit.rid.page_id, 1u);  // (10, 0)
  EXPECT_NEAR((*nn)[0].distance, std::sqrt(2.0), 1e-12);
}

TEST(KnnTest, KLargerThanTreeReturnsEverything) {
  Env env;
  RTree tree = MakeTree(&env, {{0, 0}, {1, 1}, {2, 2}}, false);
  auto nn = SearchNearest(tree, Point{0, 0}, 10);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->size(), 3u);
}

TEST(KnnTest, ResultsOrderedByDistance) {
  Env env;
  Random rng(5);
  const auto pts = workload::UniformPoints(&rng, 200,
                                           workload::PaperFrame());
  RTree tree = MakeTree(&env, pts, true);
  auto nn = SearchNearest(tree, Point{500, 500}, 20);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->size(), 20u);
  for (size_t i = 1; i < nn->size(); ++i) {
    EXPECT_LE((*nn)[i - 1].distance, (*nn)[i].distance);
  }
}

/// Differential sweep: exact agreement with brute force across seeds, k,
/// and construction paths.
class KnnDifferential
    : public ::testing::TestWithParam<std::tuple<int, size_t, bool>> {};

TEST_P(KnnDifferential, MatchesBruteForce) {
  const auto [seed, k, packed] = GetParam();
  Env env;
  Random rng(static_cast<uint64_t>(seed));
  const auto pts = workload::UniformPoints(&rng, 300,
                                           workload::PaperFrame());
  RTree tree = MakeTree(&env, pts, packed);

  for (int trial = 0; trial < 20; ++trial) {
    const Point q{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    SearchStats stats;
    auto nn = SearchNearest(tree, q, k, &stats);
    ASSERT_TRUE(nn.ok());
    ASSERT_EQ(nn->size(), std::min(k, pts.size()));

    // Brute-force distances, sorted.
    std::vector<double> expected;
    for (const Point& p : pts) expected.push_back(geom::Distance(p, q));
    std::sort(expected.begin(), expected.end());
    for (size_t i = 0; i < nn->size(); ++i) {
      EXPECT_NEAR((*nn)[i].distance, expected[i], 1e-9)
          << "k-th neighbour mismatch at " << i;
    }
    // Best-first search must not scan the whole tree for small k.
    if (k <= 5) {
      auto total = tree.CountNodes();
      ASSERT_TRUE(total.ok());
      EXPECT_LT(stats.nodes_visited, *total);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnDifferential,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(size_t{1}, size_t{5}, size_t{32}),
                       ::testing::Bool()));

TEST(KnnExactTest, RefinesBeyondMbrOrdering) {
  // Two diagonal segments: the query sits near segment B's line but
  // inside segment A's (empty) MBR corner, so MBR MINDIST prefers A while
  // the exact distance prefers B.
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());

  std::vector<geom::Geometry> geometries = {
      geom::Geometry(geom::Segment{{0, 0}, {100, 100}}),   // A: diagonal
      geom::Geometry(geom::Segment{{80, 0}, {100, 20}}),   // B: near corner
  };
  for (size_t i = 0; i < geometries.size(); ++i) {
    ASSERT_TRUE(tree->Insert(geometries[i].Mbr(), MakeRid(i)).ok());
  }
  const Point query{95, 2};
  // Sanity: MBR distance says A (distance 0, query inside A's MBR), but
  // the exact nearest object is B.
  ASSERT_EQ(geom::MinDistance(geometries[0].Mbr(), query), 0.0);
  ASSERT_GT(geom::DistanceTo(geometries[0], query),
            geom::DistanceTo(geometries[1], query));

  auto mbr_level = SearchNearest(*tree, query, 1);
  ASSERT_TRUE(mbr_level.ok());
  EXPECT_EQ((*mbr_level)[0].hit.rid.page_id, 0u);  // fooled by the MBR

  auto resolver = [&geometries](const Rid& rid) -> StatusOr<geom::Geometry> {
    return geometries[rid.page_id];
  };
  SearchStats stats;
  auto exact = SearchNearestExact(*tree, query, 2, resolver, &stats);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->size(), 2u);
  EXPECT_EQ(stats.results, 2u);  // reported even when stopping at k
  EXPECT_EQ((*exact)[0].hit.rid.page_id, 1u);  // B first
  EXPECT_NEAR((*exact)[0].distance,
              geom::DistanceTo(geometries[1], query), 1e-12);
  EXPECT_LE((*exact)[0].distance, (*exact)[1].distance);
}

TEST(KnnExactTest, MatchesBruteForceOnMixedObjects) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 6;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(21);
  std::vector<geom::Geometry> geometries;
  for (int i = 0; i < 150; ++i) {
    const double x = rng.UniformDouble(0, 900);
    const double y = rng.UniformDouble(0, 900);
    switch (rng.Uniform(3)) {
      case 0:
        geometries.push_back(geom::Geometry(Point{x, y}));
        break;
      case 1:
        geometries.push_back(geom::Geometry(
            geom::Segment{{x, y},
                          {x + rng.UniformDouble(5, 80),
                           y + rng.UniformDouble(5, 80)}}));
        break;
      default:
        geometries.push_back(geom::Geometry(
            geom::Polygon({{x, y},
                           {x + rng.UniformDouble(5, 40), y},
                           {x, y + rng.UniformDouble(5, 40)}})));
        break;
    }
  }
  for (size_t i = 0; i < geometries.size(); ++i) {
    ASSERT_TRUE(tree->Insert(geometries[i].Mbr(), MakeRid(i)).ok());
  }
  auto resolver = [&geometries](const Rid& rid) -> StatusOr<geom::Geometry> {
    return geometries[rid.page_id];
  };

  for (int trial = 0; trial < 20; ++trial) {
    const Point q{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    auto exact = SearchNearestExact(*tree, q, 5, resolver);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(exact->size(), 5u);
    std::vector<double> expected;
    for (const auto& g : geometries) {
      expected.push_back(geom::DistanceTo(g, q));
    }
    std::sort(expected.begin(), expected.end());
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR((*exact)[i].distance, expected[i], 1e-9) << i;
    }
  }
}

TEST(KnnTest, WorksOnRectObjects) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 10, 10), Rid{1, 0}).ok());
  ASSERT_TRUE(tree->Insert(Rect(20, 20, 30, 30), Rid{2, 0}).ok());
  // Query inside the first rect: distance 0.
  auto nn = SearchNearest(*tree, Point{5, 5}, 2);
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn->size(), 2u);
  EXPECT_EQ((*nn)[0].hit.rid.page_id, 1u);
  EXPECT_EQ((*nn)[0].distance, 0.0);
  EXPECT_NEAR((*nn)[1].distance, std::hypot(15, 15), 1e-12);
}

}  // namespace
}  // namespace pictdb::rtree
