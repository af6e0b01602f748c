// Property sweeps over the dynamic R-tree: for every combination of
// branching factor, split algorithm, and dataset shape, the tree must
// keep its structural invariants and answer exactly like a brute-force
// scan, through interleaved inserts and deletes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
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

enum class Dataset { kUniform, kClustered, kSkewed, kRegions, kGrid };

std::vector<Rect> MakeDataset(Dataset kind, Random* rng, size_t n) {
  const Rect frame = workload::PaperFrame();
  std::vector<Rect> out;
  switch (kind) {
    case Dataset::kUniform:
      for (const Point& p : workload::UniformPoints(rng, n, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case Dataset::kClustered:
      for (const Point& p :
           workload::ClusteredPoints(rng, n, 5, 30.0, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case Dataset::kSkewed:
      for (const Point& p : workload::SkewedPoints(rng, n, 3.0, frame)) {
        out.push_back(Rect::FromPoint(p));
      }
      break;
    case Dataset::kRegions:
      out = workload::DisjointRegions(rng, n, frame);
      break;
    case Dataset::kGrid: {
      const size_t side = static_cast<size_t>(std::sqrt(double(n))) + 1;
      const auto pts = workload::GridPoints(rng, side, side, 0.3, frame);
      for (size_t i = 0; i < n && i < pts.size(); ++i) {
        out.push_back(Rect::FromPoint(pts[i]));
      }
      break;
    }
  }
  return out;
}

class RTreeProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t /*max_entries*/, SplitAlgorithm, Dataset>> {};

TEST_P(RTreeProperty, InvariantsAndExactAnswers) {
  const auto [max_entries, split, dataset] = GetParam();
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  RTreeOptions opts;
  opts.max_entries = max_entries;
  opts.split = split;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(1000 + static_cast<uint64_t>(max_entries) * 10 +
             static_cast<uint64_t>(dataset));
  const auto rects = MakeDataset(dataset, &rng, 180);

  // Insert everything.
  std::map<size_t, Rect> live;
  for (size_t i = 0; i < rects.size(); ++i) {
    ASSERT_TRUE(
        tree->Insert(rects[i], Rid{static_cast<storage::PageId>(i), 0}).ok());
    live[i] = rects[i];
  }
  ASSERT_TRUE(TreeIsValid(*tree));

  // Interleave deletes with queries.
  for (int round = 0; round < 4; ++round) {
    // Delete a random 20%.
    std::vector<size_t> keys;
    for (const auto& [k, r] : live) keys.push_back(k);
    for (size_t d = 0; d < keys.size() / 5; ++d) {
      const size_t pick = keys[rng.Uniform(keys.size())];
      const auto it = live.find(pick);
      if (it == live.end()) continue;
      ASSERT_TRUE(
          tree->Delete(it->second, Rid{static_cast<storage::PageId>(pick), 0})
              .ok());
      live.erase(it);
    }
    ASSERT_TRUE(TreeIsValid(*tree));
    EXPECT_EQ(tree->Size(), live.size());

    // Window queries agree with brute force.
    const auto windows =
        workload::RandomWindowQueries(&rng, 10, 0.05, workload::PaperFrame());
    for (const Rect& w : windows) {
      auto hits = tree->SearchIntersects(w);
      ASSERT_TRUE(hits.ok());
      std::set<storage::PageId> got;
      for (const LeafHit& h : *hits) got.insert(h.rid.page_id);
      std::set<storage::PageId> expected;
      for (const auto& [k, r] : live) {
        if (r.Intersects(w)) {
          expected.insert(static_cast<storage::PageId>(k));
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeProperty,
    ::testing::Combine(
        ::testing::Values(size_t{4}, size_t{8}),
        ::testing::Values(SplitAlgorithm::kQuadratic, SplitAlgorithm::kLinear,
                          SplitAlgorithm::kRStar),
        ::testing::Values(Dataset::kUniform, Dataset::kClustered,
                          Dataset::kSkewed, Dataset::kRegions,
                          Dataset::kGrid)));

}  // namespace
}  // namespace pictdb::rtree
