// Tests for the Theorem 3.2 machinery: a rotation with distinct
// x-coordinates exists (Lemma 3.1), and x-sorted chunking of the rotated
// points yields pairwise-disjoint leaf MBRs (zero overlap).

#include <gtest/gtest.h>

#include "common/random.h"
#include "geom/measure.h"
#include "pack/rotation.h"
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
using storage::Rid;
using testing_support::TreeIsValid;

TEST(RotationPackingTest, EmptyAndTinyInputs) {
  auto empty = ComputeRotationPacking({}, 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->leaf_mbrs.empty());

  auto one = ComputeRotationPacking({{3, 4}}, 4);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->leaf_mbrs.size(), 1u);

  EXPECT_FALSE(ComputeRotationPacking({{0, 0}}, 0).ok());
}

TEST(RotationPackingTest, GroupCountIsCeilNOverB) {
  Random rng(1);
  const auto pts = workload::UniformPoints(&rng, 23,
                                           workload::PaperFrame());
  auto packing = ComputeRotationPacking(pts, 4);
  ASSERT_TRUE(packing.ok());
  EXPECT_EQ(packing->leaf_mbrs.size(), 6u);  // ceil(23/4)
}

/// Theorem 3.2 across seeds and group sizes: zero overlap always.
class ZeroOverlapTheorem
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(ZeroOverlapTheorem, LeafMbrsAreDisjoint) {
  const auto [seed, group_size] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  const auto pts = workload::UniformPoints(&rng, 64 + rng.Uniform(200),
                                           workload::PaperFrame());
  auto packing = ComputeRotationPacking(pts, group_size);
  ASSERT_TRUE(packing.ok());

  // Pairwise interior-disjoint (the theorem's guarantee: the strips are
  // separated in x, so no common interior area).
  const double overlap = geom::AreaCoveredAtLeast(packing->leaf_mbrs, 2);
  EXPECT_EQ(overlap, 0.0);
  for (size_t i = 0; i < packing->leaf_mbrs.size(); ++i) {
    for (size_t j = i + 1; j < packing->leaf_mbrs.size(); ++j) {
      EXPECT_FALSE(packing->leaf_mbrs[i].IntersectsInterior(
          packing->leaf_mbrs[j]))
          << i << " vs " << j;
    }
  }
  // The rotation really separated the x-coordinates.
  EXPECT_TRUE(geom::AllXDistinct(packing->rotated));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZeroOverlapTheorem,
    ::testing::Combine(::testing::Range(1, 9),
                       ::testing::Values(size_t{2}, size_t{4}, size_t{7})));

TEST(RotationPackingTest, LatticeInputNeedsRealRotation) {
  // Integer lattice: unrotated x-sorted chunking would produce massive
  // vertical-strip ties; the rotation must still give zero overlap.
  std::vector<Point> pts;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      pts.push_back(Point{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  auto packing = ComputeRotationPacking(pts, 4);
  ASSERT_TRUE(packing.ok());
  EXPECT_NE(packing->angle, 0.0);
  EXPECT_EQ(geom::AreaCoveredAtLeast(packing->leaf_mbrs, 2), 0.0);
}

TEST(PackWithRotationTest, BuildsQueryableTreeInRotatedFrame) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 4096);
  rtree::RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = rtree::RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(5);
  const auto pts = workload::UniformPoints(&rng, 120,
                                           workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  geom::Transform transform;
  ASSERT_TRUE(PackWithRotation(&*tree, pts, rids, &transform).ok());
  ASSERT_TRUE(TreeIsValid(*tree));

  // Zero leaf overlap in the rotated frame.
  auto q = rtree::MeasureTree(*tree);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->overlap, 0.0);

  // Queries work after applying the same transform.
  for (size_t i = 0; i < pts.size(); i += 10) {
    const Point rotated = transform.Apply(pts[i]);
    auto hits = tree->SearchPoint(rotated);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& h : *hits) {
      if (h.rid.page_id == i) found = true;
    }
    EXPECT_TRUE(found) << i;
  }
}

}  // namespace
}  // namespace pictdb::pack
