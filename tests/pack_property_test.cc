// Property sweeps over the bulk loaders: every builder × dataset ×
// branching factor must produce a structurally valid tree that answers
// window queries exactly like a brute-force scan, and packed trees must
// never have worse coverage than the dynamically-built tree on uniform
// data (the paper's central claim).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>

#include "common/random.h"
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

enum class BuilderKind { kNN, kLowX, kStr, kHilbert, kNNHilbertOrder };
enum class DataKind { kUniform, kClustered, kSkewed, kRects };

PackOptions Packer(BuilderKind kind) {
  switch (kind) {
    case BuilderKind::kNN:
      return {};
    case BuilderKind::kLowX:
      return {.strategy = PackStrategy::kSortChunk};
    case BuilderKind::kStr:
      return {.strategy = PackStrategy::kStr};
    case BuilderKind::kHilbert:
      return {.criterion = SortCriterion::kHilbert,
              .strategy = PackStrategy::kSortChunk};
    case BuilderKind::kNNHilbertOrder:
      return {.criterion = SortCriterion::kHilbert};
  }
  return {};
}

/// Cuts one level into nodes of at most `max` entries.
using Grouping = std::function<std::vector<std::vector<Entry>>(
    const std::vector<Entry>& items, size_t max)>;

/// Writes a tree bottom-up, node by node, with `grouping` deciding every
/// level's nodes: the bulk-write primitives under any grouping at all.
Status BuildWithGrouping(RTree* tree, std::vector<Entry> items,
                         const Grouping& grouping) {
  const size_t max = tree->options().max_entries;
  const uint64_t size = items.size();
  uint16_t level = 0;
  while (items.size() > max) {
    std::vector<Entry> parents;
    for (const std::vector<Entry>& node : grouping(items, max)) {
      PICTDB_ASSIGN_OR_RETURN(const storage::PageId page,
                              tree->BulkWriteNode(level, node));
      Entry parent;
      for (const Entry& e : node) parent.mbr.ExpandToInclude(e.mbr);
      parent.payload = Entry::PayloadFromChild(page);
      parents.push_back(parent);
    }
    items = std::move(parents);
    ++level;
  }
  PICTDB_ASSIGN_OR_RETURN(const storage::PageId root,
                          tree->BulkWriteNode(level, items));
  return tree->BulkSetRoot(root, level + 1u, size);
}

/// The deliberately naive grouping: chunks in input order, with no
/// spatial grouping at all.
std::vector<std::vector<Entry>> ChunkInInputOrder(
    const std::vector<Entry>& items, size_t max) {
  std::vector<std::vector<Entry>> groups;
  for (size_t i = 0; i < items.size(); i += max) {
    groups.emplace_back(items.begin() + i,
                        items.begin() + std::min(items.size(), i + max));
  }
  return groups;
}

std::vector<Rect> MakeData(DataKind kind, Random* rng, size_t n) {
  const Rect frame = workload::PaperFrame();
  std::vector<Rect> out;
  switch (kind) {
    case DataKind::kUniform:
      for (const Point& p : workload::UniformPoints(rng, n, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kClustered:
      for (const Point& p :
           workload::ClusteredPoints(rng, n, 6, 25.0, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kSkewed:
      for (const Point& p : workload::SkewedPoints(rng, n, 2.5, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case DataKind::kRects:
      out = workload::DisjointRegions(rng, n, frame);
      break;
  }
  return out;
}

class PackProperty
    : public ::testing::TestWithParam<
          std::tuple<BuilderKind, DataKind, size_t /*max_entries*/>> {};

TEST_P(PackProperty, ValidCompleteAndExact) {
  const auto [builder, data, max_entries] = GetParam();
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = max_entries;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(9000 + static_cast<uint64_t>(builder) * 100 +
             static_cast<uint64_t>(data) * 10 + max_entries);
  const size_t n = 150 + rng.Uniform(150);
  const auto rects = MakeData(data, &rng, n);
  std::vector<Rid> rids;
  for (size_t i = 0; i < rects.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  ASSERT_TRUE(
      Pack(&*tree, MakeLeafEntries(rects, rids), Packer(builder)).ok());

  // Structure.
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(tree->Size(), rects.size());

  // Packed trees should be near-minimal in node count: every level is
  // chunked into full nodes, so nodes <= twice the perfect count.
  auto node_count = tree->CountNodes();
  ASSERT_TRUE(node_count.ok());
  uint64_t perfect = 0;
  for (size_t remaining = rects.size(); remaining > 1;
       remaining = (remaining + max_entries - 1) / max_entries) {
    perfect += (remaining + max_entries - 1) / max_entries;
  }
  EXPECT_LE(*node_count, 2 * perfect + 1);

  // Exactness on window queries.
  const auto windows =
      workload::RandomWindowQueries(&rng, 15, 0.03, workload::PaperFrame());
  for (const Rect& w : windows) {
    auto hits = tree->SearchIntersects(w);
    ASSERT_TRUE(hits.ok());
    std::set<storage::PageId> got;
    for (const auto& h : *hits) got.insert(h.rid.page_id);
    std::set<storage::PageId> expected;
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(w)) {
        expected.insert(static_cast<storage::PageId>(i));
      }
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackProperty,
    ::testing::Combine(
        ::testing::Values(BuilderKind::kNN, BuilderKind::kLowX,
                          BuilderKind::kStr, BuilderKind::kHilbert,
                          BuilderKind::kNNHilbertOrder),
        ::testing::Values(DataKind::kUniform, DataKind::kClustered,
                          DataKind::kSkewed, DataKind::kRects),
        ::testing::Values(size_t{4}, size_t{10})));

/// The bulk-write primitives accept ANY legal grouping: random groupings
/// with random (valid) group sizes must still yield structurally valid,
/// complete, exactly-searchable trees.
class BulkLoadAnyGrouping : public ::testing::TestWithParam<int> {};

TEST_P(BulkLoadAnyGrouping, RandomGroupingsProduceValidTrees) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = 5;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random data_rng(GetParam());
  const auto pts =
      workload::UniformPoints(&data_rng, 120 + data_rng.Uniform(200),
                              workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }

  // Seeded RNG captured by the grouping lambda: shuffle, then cut into
  // random-size groups in [1, max].
  auto rng = std::make_shared<Random>(GetParam() * 7919);
  auto grouping = [rng](const std::vector<Entry>& items, size_t max) {
    std::vector<Entry> shuffled = items;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng->Uniform(i)]);
    }
    std::vector<std::vector<Entry>> groups;
    size_t i = 0;
    while (i < shuffled.size()) {
      const size_t take =
          std::min(shuffled.size() - i, 1 + rng->Uniform(max));
      groups.emplace_back(shuffled.begin() + i, shuffled.begin() + i + take);
      i += take;
    }
    return groups;
  };

  ASSERT_TRUE(
      BuildWithGrouping(&*tree, MakeLeafEntries(pts, rids), grouping).ok());
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_EQ(tree->Size(), pts.size());

  // Exactness spot check.
  Random query_rng(GetParam() + 1);
  const auto windows = workload::RandomWindowQueries(
      &query_rng, 10, 0.05, workload::PaperFrame());
  for (const Rect& w : windows) {
    auto hits = tree->SearchIntersects(w);
    ASSERT_TRUE(hits.ok());
    size_t expected = 0;
    for (const Point& p : pts) {
      if (w.Contains(p)) ++expected;
    }
    EXPECT_EQ(hits->size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkLoadAnyGrouping, ::testing::Range(1, 9));

/// Size/shape claim sweep: across seeds, the packed tree is strictly
/// smaller (node count) and no deeper than the dynamically built tree,
/// and PACK's spatial grouping beats arbitrary (input-order) grouping on
/// coverage — the actual content of the paper's Figure 3.4 dead-space
/// argument. (The paper's absolute C columns are not geometrically
/// attainable for full nodes of uniform points; see EXPERIMENTS.md.)
class CoverageClaim : public ::testing::TestWithParam<int> {};

TEST_P(CoverageClaim, PackSmallerShallowterAndTighterThanNaive) {
  storage::InMemoryDiskManager disk(256);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;

  Random rng(GetParam());
  const auto pts =
      workload::UniformPoints(&rng, 300, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }

  auto packed = RTree::Create(&pool, opts);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(
      Pack(&*packed, MakeLeafEntries(pts, rids)).ok());

  auto dynamic = RTree::Create(&pool, opts);
  ASSERT_TRUE(dynamic.ok());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(dynamic->Insert(Rect::FromPoint(pts[i]), rids[i]).ok());
  }

  auto pq = rtree::MeasureTree(*packed);
  auto dq = rtree::MeasureTree(*dynamic);
  ASSERT_TRUE(pq.ok() && dq.ok());
  EXPECT_LT(pq->nodes, dq->nodes) << "seed " << GetParam();
  EXPECT_LE(pq->depth, dq->depth) << "seed " << GetParam();

  // Spatial grouping must beat arbitrary grouping: bulk-load the same
  // points chunked in (shuffled) input order and compare coverage.
  auto naive = RTree::Create(&pool, opts);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(BuildWithGrouping(&*naive, MakeLeafEntries(pts, rids),
                                ChunkInInputOrder)
                  .ok());
  auto nq = rtree::MeasureTree(*naive);
  ASSERT_TRUE(nq.ok());
  EXPECT_LT(pq->coverage, nq->coverage / 3) << "seed " << GetParam();
  EXPECT_LT(pq->overlap, nq->overlap / 3) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageClaim, ::testing::Range(1, 11));

}  // namespace
}  // namespace pictdb::pack
