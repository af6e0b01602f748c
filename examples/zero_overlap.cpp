// Constructive demonstration of the paper's Theorem 3.2: for any finite
// point set there is a rotation of the frame of reference under which an
// x-sorted chunking yields pairwise-disjoint leaf MBRs (zero overlap) —
// and of objection (1): queries must then be rotated too.
//
//   ./build/examples/zero_overlap

#include <cstdio>

#include "common/random.h"
#include "geom/measure.h"
#include "pack/pack.h"
#include "pack/rotation.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

using namespace pictdb;

int main() {
  Random rng(1985);

  // A lattice: the worst case for unrotated x-chunking, because whole
  // columns of points share each x-coordinate. 15 rows per column do not
  // divide into groups of 4, so unrotated chunks straddle columns and
  // produce tall overlapping strips.
  std::vector<geom::Point> pts;
  for (int x = 0; x < 15; ++x) {
    for (int y = 0; y < 15; ++y) {
      pts.push_back(geom::Point{x * 60.0, y * 60.0});
    }
  }

  auto describe = [](const char* label, const std::vector<geom::Rect>& mbrs) {
    size_t touching_pairs = 0;
    for (size_t i = 0; i < mbrs.size(); ++i) {
      for (size_t j = i + 1; j < mbrs.size(); ++j) {
        if (mbrs[i].Intersects(mbrs[j])) ++touching_pairs;
      }
    }
    std::printf("%-22s leaves=%3zu coverage=%9.1f overlap-area=%6.1f "
                "intersecting-pairs=%zu\n",
                label, mbrs.size(), geom::TotalArea(mbrs),
                geom::AreaCoveredAtLeast(mbrs, 2), touching_pairs);
  };

  // Unrotated baseline: sort-chunk the raw points. Whole columns share
  // each x, so chunks straddle columns into tall strips that touch their
  // neighbours.
  {
    auto items = pack::MakeLeafEntries(
        pts, std::vector<storage::Rid>(pts.size(), storage::Rid{0, 0}));
    const auto groups =
        pack::Group(items, 4, {.strategy = pack::PackStrategy::kSortChunk});
    std::vector<geom::Rect> mbrs;
    for (const auto& g : groups) {
      geom::Rect r;
      for (const auto& e : g) r.ExpandToInclude(e.mbr);
      mbrs.push_back(r);
    }
    describe("unrotated x-chunking:", mbrs);
  }

  // Theorem 3.2: find the rotation (Lemma 3.1) and chunk. The leaf MBRs
  // become pairwise disjoint — they do not even touch.
  auto packing = pack::ComputeRotationPacking(pts, 4);
  PICTDB_CHECK(packing.ok());
  std::printf("(rotation angle: %.6f rad)\n", packing->angle);
  describe("rotated chunking:", packing->leaf_mbrs);
  for (size_t i = 0; i < packing->leaf_mbrs.size(); ++i) {
    for (size_t j = i + 1; j < packing->leaf_mbrs.size(); ++j) {
      PICTDB_CHECK(!packing->leaf_mbrs[i].Intersects(packing->leaf_mbrs[j]));
    }
  }

  // Build a real R-tree in the rotated frame and query through the
  // transform (objection (1) from §3.2 made concrete).
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 4096);
  rtree::RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = rtree::RTree::Create(&pool, opts);
  PICTDB_CHECK(tree.ok());

  std::vector<storage::Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  geom::Transform transform;
  PICTDB_CHECK_OK(pack::PackWithRotation(&*tree, pts, rids, &transform));

  auto quality = rtree::MeasureTree(*tree);
  PICTDB_CHECK(quality.ok());
  std::printf("R-tree in rotated frame: %s (overlap is exactly 0)\n",
              rtree::ToString(*quality).c_str());

  // A query arrives in ORIGINAL coordinates and must be transformed.
  const geom::Point original_query{300, 300};
  const geom::Point rotated_query = transform.Apply(original_query);
  auto hits = tree->SearchPoint(rotated_query);
  PICTDB_CHECK(hits.ok());
  std::printf(
      "query (%.0f, %.0f) -> rotated (%.2f, %.2f) -> %zu hit(s)\n",
      original_query.x, original_query.y, rotated_query.x, rotated_query.y,
      hits->size());

  // Un-transformed queries silently miss: the cost of the rotation trick.
  auto wrong = tree->SearchPoint(original_query);
  PICTDB_CHECK(wrong.ok());
  std::printf("same query without the transform -> %zu hit(s) "
              "(objection (1): the whole database frame is rotated)\n",
              wrong->size());
  return 0;
}
