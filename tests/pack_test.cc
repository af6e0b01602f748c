#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <tuple>

#include "common/random.h"
#include "pack/hilbert.h"
#include "pack/nn_grid.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"
#include "workload/queries.h"

#include "tree_check.h"

namespace pictdb::pack {
namespace {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::RTree;
using rtree::RTreeOptions;
using storage::Rid;
using testing_support::TreeIsValid;

struct Env {
  Env() : disk(512), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

/// One packer per strategy family: the paper's PACK, sort-chunk ("lowx"),
/// STR, and sort-chunk with the Hilbert criterion.
const PackOptions kPackers[] = {
    {},
    {.strategy = PackStrategy::kSortChunk},
    {.strategy = PackStrategy::kStr},
    {.criterion = SortCriterion::kHilbert,
     .strategy = PackStrategy::kSortChunk},
};

std::vector<Entry> PointItems(const std::vector<Point>& pts) {
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  return MakeLeafEntries(pts, rids);
}

// --- NearestNeighborGrid -------------------------------------------------------

TEST(NnGridTest, FindsExactNearest) {
  Random rng(3);
  const auto pts =
      workload::UniformPoints(&rng, 300, workload::PaperFrame());
  NearestNeighborGrid grid(pts);
  for (int trial = 0; trial < 100; ++trial) {
    const Point q{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    const auto got = grid.Nearest(q);
    ASSERT_TRUE(got.has_value());
    // Brute-force reference.
    size_t best = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
      if (geom::DistanceSquared(pts[i], q) <
          geom::DistanceSquared(pts[best], q)) {
        best = i;
      }
    }
    EXPECT_EQ(geom::DistanceSquared(pts[*got], q),
              geom::DistanceSquared(pts[best], q));
  }
}

TEST(NnGridTest, RespectsRemovals) {
  const std::vector<Point> pts = {{0, 0}, {1, 0}, {5, 0}, {9, 0}};
  NearestNeighborGrid grid(pts);
  EXPECT_EQ(*grid.Nearest(Point{0.4, 0}), 0u);
  grid.Remove(0);
  EXPECT_EQ(*grid.Nearest(Point{0.4, 0}), 1u);
  grid.Remove(1);
  EXPECT_EQ(*grid.Nearest(Point{0.4, 0}), 2u);
  grid.Remove(2);
  grid.Remove(3);
  EXPECT_FALSE(grid.Nearest(Point{0.4, 0}).has_value());
  EXPECT_EQ(grid.remaining(), 0u);
}

TEST(NnGridTest, DrainMatchesBruteForceSequence) {
  Random rng(5);
  const auto pts =
      workload::UniformPoints(&rng, 120, workload::PaperFrame());
  NearestNeighborGrid grid(pts);
  std::vector<bool> alive(pts.size(), true);
  const Point q{500, 500};
  while (grid.remaining() > 0) {
    const auto got = grid.Nearest(q);
    ASSERT_TRUE(got.has_value());
    double best_d2 = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pts.size(); ++i) {
      if (alive[i]) best_d2 = std::min(best_d2,
                                       geom::DistanceSquared(pts[i], q));
    }
    EXPECT_EQ(geom::DistanceSquared(pts[*got], q), best_d2);
    alive[*got] = false;
    grid.Remove(*got);
  }
}

TEST(NnGridTest, IdenticalPointsHandled) {
  const std::vector<Point> pts(10, Point{3, 3});
  NearestNeighborGrid grid(pts);
  std::set<size_t> seen;
  for (int i = 0; i < 10; ++i) {
    const auto got = grid.Nearest(Point{3, 3});
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(seen.insert(*got).second);
    grid.Remove(*got);
  }
}

// --- Grouping functions ----------------------------------------------------------

TEST(GroupingTest, NearestNeighborGroupsAreFullExceptLast) {
  Random rng(7);
  const auto pts = workload::UniformPoints(&rng, 103,
                                           workload::PaperFrame());
  const auto groups = Group(PointItems(pts), 4, PackOptions{});
  ASSERT_EQ(groups.size(), 26u);  // ceil(103/4)
  size_t total = 0;
  for (size_t i = 0; i < groups.size(); ++i) {
    total += groups[i].size();
    EXPECT_LE(groups[i].size(), 4u);
    EXPECT_GE(groups[i].size(), 1u);
  }
  EXPECT_EQ(total, 103u);
}

TEST(GroupingTest, AllGroupersPartitionTheInput) {
  Random rng(11);
  const auto pts = workload::UniformPoints(&rng, 97,
                                           workload::PaperFrame());
  const auto items = PointItems(pts);
  for (const PackOptions& packer : kPackers) {
    const auto groups = Group(items, 8, packer);
    std::set<uint64_t> payloads;
    for (const auto& g : groups) {
      for (const Entry& e : g) payloads.insert(e.payload);
    }
    EXPECT_EQ(payloads.size(), 97u);
  }
}

TEST(GroupingTest, SortChunkRespectsXOrder) {
  const std::vector<Point> pts = {{9, 0}, {1, 0}, {5, 0}, {3, 0},
                                  {7, 0}, {2, 0}, {8, 0}, {4, 0}};
  const auto groups =
      Group(PointItems(pts), 4, {.strategy = PackStrategy::kSortChunk});
  ASSERT_EQ(groups.size(), 2u);
  // First group holds the 4 lowest x values.
  double max_first = 0;
  double min_second = 100;
  for (const Entry& e : groups[0]) max_first = std::max(max_first,
                                                        e.mbr.lo.x);
  for (const Entry& e : groups[1]) min_second = std::min(min_second,
                                                         e.mbr.lo.x);
  EXPECT_LT(max_first, min_second);
}

// --- Builders produce valid, complete, searchable trees --------------------------

class PackBuilders : public ::testing::TestWithParam<int> {
 protected:
  Status Build(RTree* tree, const std::vector<Entry>& items) const {
    return Pack(tree, items, kPackers[GetParam()]);
  }
};

TEST_P(PackBuilders, BuildsValidTreeWithAllEntries) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(97);
  const auto pts = workload::UniformPoints(&rng, 217,
                                           workload::PaperFrame());
  ASSERT_TRUE(Build(&*tree, PointItems(pts)).ok());
  EXPECT_EQ(tree->Size(), 217u);
  ASSERT_TRUE(TreeIsValid(*tree));
  auto all = tree->CollectAllEntries();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 217u);
  // Every point individually findable.
  for (size_t i = 0; i < pts.size(); ++i) {
    auto hits = tree->SearchPoint(pts[i]);
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& h : *hits) {
      if (h.rid.page_id == i) found = true;
    }
    EXPECT_TRUE(found) << "point " << i;
  }
}

TEST_P(PackBuilders, HandlesTinyInputs) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}}) {
    Env env;
    RTreeOptions opts;
    opts.max_entries = 4;
    auto tree = RTree::Create(&env.pool, opts);
    ASSERT_TRUE(tree.ok());
    Random rng(1234 + n);
    const auto pts =
        workload::UniformPoints(&rng, n, workload::PaperFrame());
    ASSERT_TRUE(Build(&*tree, PointItems(pts)).ok()) << "n=" << n;
    EXPECT_EQ(tree->Size(), n);
    ASSERT_TRUE(TreeIsValid(*tree)) << "n=" << n;
  }
}

TEST_P(PackBuilders, RejectsNonEmptyTarget) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Insert(Rect(0, 0, 1, 1), Rid{0, 0}).ok());
  Random rng(7);
  const auto pts = workload::UniformPoints(&rng, 10,
                                           workload::PaperFrame());
  EXPECT_FALSE(Build(&*tree, PointItems(pts)).ok());
}

TEST_P(PackBuilders, PackedTreeSupportsLaterUpdates) {
  // §3.4: INSERT and DELETE still work on a PACKed tree.
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(55);
  const auto pts = workload::UniformPoints(&rng, 100,
                                           workload::PaperFrame());
  ASSERT_TRUE(Build(&*tree, PointItems(pts)).ok());

  // Insert 30 new points.
  const auto extra = workload::UniformPoints(&rng, 30,
                                             workload::PaperFrame());
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(extra[i]),
                             Rid{static_cast<storage::PageId>(1000 + i), 0})
                    .ok());
  }
  // Delete 30 old points.
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree->Delete(Rect::FromPoint(pts[i]),
                             Rid{static_cast<storage::PageId>(i), 0})
                    .ok());
  }
  EXPECT_EQ(tree->Size(), 100u);
  ASSERT_TRUE(TreeIsValid(*tree));
}

std::string BuilderName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"PackNN", "LowX", "STR", "Hilbert"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, PackBuilders,
                         ::testing::Values(0, 1, 2, 3), BuilderName);

// --- The paper's headline claim ---------------------------------------------------

TEST(PackQualityTest, PackBeatsInsertOnUniformPoints) {
  // The reproducible part of Table 1's shape (see EXPERIMENTS.md for why
  // the paper's absolute C/O columns are not geometrically attainable):
  // the packed tree has strictly fewer nodes, no greater depth, and
  // answers window queries and data-point membership queries with fewer
  // node visits than the dynamically grown tree.
  Env env;
  Random rng(500);
  const auto pts = workload::UniformPoints(&rng, 900,
                                           workload::PaperFrame());

  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;

  auto packed = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(Pack(&*packed, PointItems(pts)).ok());

  auto dynamic = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(dynamic.ok());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(dynamic
                    ->Insert(Rect::FromPoint(pts[i]),
                             Rid{static_cast<storage::PageId>(i), 0})
                    .ok());
  }

  auto pq = rtree::MeasureTree(*packed);
  auto dq = rtree::MeasureTree(*dynamic);
  ASSERT_TRUE(pq.ok() && dq.ok());
  EXPECT_TRUE(TreeIsValid(*packed));
  EXPECT_TRUE(TreeIsValid(*dynamic));
  EXPECT_LT(pq->nodes, dq->nodes);
  EXPECT_LE(pq->depth, dq->depth);

  // Fewer nodes visited on 1%-selectivity window queries.
  const auto windows = workload::RandomWindowQueries(
      &rng, 300, 0.01, workload::PaperFrame());
  uint64_t packed_visits = 0, dynamic_visits = 0;
  for (const Rect& w : windows) {
    rtree::SearchStats ps, ds;
    ASSERT_TRUE(packed->SearchIntersects(w, &ps).ok());
    ASSERT_TRUE(dynamic->SearchIntersects(w, &ds).ok());
    packed_visits += ps.nodes_visited;
    dynamic_visits += ds.nodes_visited;
  }
  EXPECT_LT(packed_visits, dynamic_visits);

  // Fewer nodes visited on membership queries for the data points.
  std::vector<geom::Point> members(pts.begin(), pts.end());
  auto pa = rtree::AverageNodesVisited(*packed, members);
  auto da = rtree::AverageNodesVisited(*dynamic, members);
  ASSERT_TRUE(pa.ok() && da.ok());
  EXPECT_LT(*pa, *da);
}

TEST(PackQualityTest, PackedNodesAreFull) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  Random rng(600);
  const auto pts = workload::UniformPoints(&rng, 256,
                                           workload::PaperFrame());
  ASSERT_TRUE(Pack(&*tree, PointItems(pts)).ok());
  // 256 = 4^4: every node is exactly full and the tree is a perfect
  // 4-ary tree of height 4 with 64+16+4+1 = 85 nodes.
  EXPECT_EQ(tree->Height(), 4u);
  auto nodes = tree->CountNodes();
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, 85u);
}

// --- Hilbert curve ------------------------------------------------------------------

TEST(HilbertTest, BijectiveOnSmallOrder) {
  const uint32_t order = 4;  // 16x16
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      const uint64_t d = HilbertXyToD(order, x, y);
      EXPECT_LT(d, 256u);
      EXPECT_TRUE(seen.insert(d).second);
      uint32_t rx, ry;
      HilbertDToXy(order, d, &rx, &ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
  }
}

TEST(HilbertTest, ConsecutiveValuesAreAdjacentCells) {
  const uint32_t order = 5;  // 32x32
  for (uint64_t d = 0; d + 1 < 1024; ++d) {
    uint32_t x1, y1, x2, y2;
    HilbertDToXy(order, d, &x1, &y1);
    HilbertDToXy(order, d + 1, &x2, &y2);
    const uint32_t manhattan =
        (x1 > x2 ? x1 - x2 : x2 - x1) + (y1 > y2 ? y1 - y2 : y2 - y1);
    EXPECT_EQ(manhattan, 1u) << "d=" << d;
  }
}

// --- adversarial inputs (mirrors the SIMD kernel suite) -----------------------

std::vector<Entry> ValidItems(size_t n) {
  Random rng(99);
  return PointItems(workload::UniformPoints(&rng, n, workload::PaperFrame()));
}

TEST(PackValidationTest, EveryBuilderRejectsNonFiniteAndEmptyMbrs) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Built by direct field assignment: the Rect(x1,y1,x2,y2) constructor
  // min/max-normalizes its arguments, which silently swallows NaNs and
  // un-inverts corners — exactly the raw states that arrive from a
  // corrupted heap scan or a buggy caller.
  const auto raw = [](double lox, double loy, double hix, double hiy) {
    Rect r;
    r.lo.x = lox;
    r.lo.y = loy;
    r.hi.x = hix;
    r.hi.y = hiy;
    return r;
  };
  const struct {
    const char* name;
    Rect mbr;
  } kBad[] = {
      {"nan_lo_x", raw(kNaN, 0, 1, 1)},
      {"nan_hi_y", raw(0, 0, 1, kNaN)},
      {"inf_hi_x", raw(0, 0, kInf, 1)},
      {"neg_inf_lo_y", raw(0, -kInf, 1, 1)},
      {"inverted", raw(5, 5, 1, 1)},
      {"default_empty", Rect()},
  };
  for (size_t b = 0; b < std::size(kPackers); ++b) {
    for (const auto& bad : kBad) {
      Env env;
      auto tree = RTree::Create(&env.pool);
      ASSERT_TRUE(tree.ok());
      std::vector<Entry> items = ValidItems(20);
      items[7].mbr = bad.mbr;
      const Status status = Pack(&*tree, items, kPackers[b]);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "builder " << b << " input " << bad.name << ": "
          << status.ToString();
      // Rejected before any mutation: the tree is still empty and packs
      // cleanly afterwards.
      EXPECT_EQ(tree->Size(), 0u);
      ASSERT_TRUE(Pack(&*tree, ValidItems(20), kPackers[b]).ok());
      EXPECT_TRUE(TreeIsValid(*tree));
    }
  }
}

TEST(PackValidationTest, AllEmptyRectsRejectedNotUndefined) {
  // Before validation existed, an all-empty input left the Hilbert frame
  // inverted: HilbertValue computed inf - inf = NaN and fed an undefined
  // NaN→uint32 cast inside std::clamp.
  for (size_t b = 0; b < std::size(kPackers); ++b) {
    Env env;
    auto tree = RTree::Create(&env.pool);
    ASSERT_TRUE(tree.ok());
    const std::vector<Entry> items(10);  // default Entry: empty Rect
    const Status status = Pack(&*tree, items, kPackers[b]);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "builder " << b;
  }
}

TEST(PackValidationTest, DenormalCoordinatesPackFine) {
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  for (size_t b = 0; b < std::size(kPackers); ++b) {
    Env env;
    auto tree = RTree::Create(&env.pool);
    ASSERT_TRUE(tree.ok());
    std::vector<Entry> items = ValidItems(30);
    items[3].mbr = Rect(-kDenorm, -kDenorm, kDenorm, kDenorm);
    items[4].mbr = Rect(kDenorm, kDenorm, 2 * kDenorm, 2 * kDenorm);
    ASSERT_TRUE(Pack(&*tree, items, kPackers[b]).ok())
        << "builder " << b;
    EXPECT_EQ(tree->Size(), 30u);
    EXPECT_TRUE(TreeIsValid(*tree));
  }
}

TEST(PackValidationTest, MonotoneBitsIsOrderPreserving) {
  const double values[] = {-std::numeric_limits<double>::infinity(),
                           -1e308,
                           -1.0,
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0,
                           0.0,
                           std::numeric_limits<double>::denorm_min(),
                           1.0,
                           1e308,
                           std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    if (values[i] < values[i + 1]) {
      EXPECT_LT(MonotoneBits(values[i]), MonotoneBits(values[i + 1]))
          << values[i] << " vs " << values[i + 1];
    } else {
      // -0.0 / +0.0: equal as doubles, bit transform keeps -0 below +0.
      EXPECT_LE(MonotoneBits(values[i]), MonotoneBits(values[i + 1]));
    }
  }
}

// Keys must be materialized once per entry, not recomputed inside the
// sort comparator (O(n log n) curve walks).
TEST(PackKeyMaterializationTest, HilbertValueComputedAtMostTwicePerEntry) {
  Env env;
  auto tree = RTree::Create(&env.pool);
  ASSERT_TRUE(tree.ok());
  const size_t n = 2000;
  const std::vector<Entry> items = ValidItems(n);
  const uint64_t before = HilbertValueComputeCountForTesting();
  ASSERT_TRUE(Pack(&*tree, items, kPackers[3]).ok());
  const uint64_t computes = HilbertValueComputeCountForTesting() - before;
  // One key per leaf entry plus one per upper-level entry (a geometric
  // tail of n/B); 2n is a generous ceiling, n log n is far above it.
  EXPECT_LE(computes, 2 * n) << "keys recomputed during the sort";
  EXPECT_GE(computes, n);
}

// --- the Pack() dispatcher ----------------------------------------------------

TEST(PackDispatcherTest, StrategySelectsPacker) {
  const auto strategies = {
      PackStrategy::kNearestNeighbor,
      PackStrategy::kSortChunk,
      PackStrategy::kStr,
  };
  for (const PackStrategy s : strategies) {
    Env env;
    auto tree = RTree::Create(&env.pool);
    ASSERT_TRUE(tree.ok());
    PackOptions options;
    options.strategy = s;
    ASSERT_TRUE(Pack(&*tree, ValidItems(150), options).ok());
    EXPECT_EQ(tree->Size(), 150u);
    EXPECT_TRUE(TreeIsValid(*tree));
  }
}

// Group() is exactly the leaf level Pack() writes, for every strategy.
TEST(PackDispatcherTest, GroupMatchesPackedLeafLevel) {
  const auto by_corners = [](const Rect& a, const Rect& b) {
    return std::tie(a.lo.x, a.lo.y, a.hi.x, a.hi.y) <
           std::tie(b.lo.x, b.lo.y, b.hi.x, b.hi.y);
  };
  const std::vector<Entry> items = ValidItems(300);
  for (size_t b = 0; b < std::size(kPackers); ++b) {
    Env env;
    auto tree = RTree::Create(&env.pool);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(Pack(&*tree, items, kPackers[b]).ok());
    auto leaves = tree->CollectNodeMbrsAtLevel(0);
    ASSERT_TRUE(leaves.ok());
    std::vector<Rect> grouped;
    for (const auto& g : Group(items, tree->options().max_entries,
                               kPackers[b])) {
      Rect mbr;
      for (const Entry& e : g) mbr.ExpandToInclude(e.mbr);
      grouped.push_back(mbr);
    }
    std::sort(leaves->begin(), leaves->end(), by_corners);
    std::sort(grouped.begin(), grouped.end(), by_corners);
    EXPECT_EQ(*leaves, grouped) << "packer " << b;
  }
}

TEST(HilbertTest, ValueMapsFrameCorners) {
  const Rect frame(0, 0, 100, 100);
  // The curve starts at the lower-left corner for this orientation.
  EXPECT_EQ(HilbertValue(Point{0, 0}, frame), 0u);
  // All corner values are within range and distinct.
  std::set<uint64_t> corners = {
      HilbertValue(Point{0, 0}, frame), HilbertValue(Point{100, 0}, frame),
      HilbertValue(Point{0, 100}, frame),
      HilbertValue(Point{100, 100}, frame)};
  EXPECT_EQ(corners.size(), 4u);
}

}  // namespace
}  // namespace pictdb::pack
