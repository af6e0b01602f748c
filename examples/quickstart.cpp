// Quickstart: build a packed R-tree over a small map of points, run the
// paper's two kinds of direct spatial search (window and point queries),
// and compare against a tree grown with dynamic INSERTs.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/logging.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

using namespace pictdb;  // examples favour brevity

int main() {
  // 1. Storage: pages in memory, behind an LRU buffer pool.
  storage::InMemoryDiskManager disk(/*page_size=*/512);
  storage::BufferPool pool(&disk, /*capacity=*/4096);

  // 2. Data: 500 uniform points in the paper's [0,1000]² frame.
  Random rng(42);
  const auto frame = workload::PaperFrame();
  const auto points = workload::UniformPoints(&rng, 500, frame);

  // 3. A packed R-tree (branching factor 8 here).
  rtree::RTreeOptions options;
  options.max_entries = 8;
  auto packed = rtree::RTree::Create(&pool, options);
  PICTDB_CHECK(packed.ok());
  std::vector<storage::Rid> rids;
  for (size_t i = 0; i < points.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  PICTDB_CHECK_OK(pack::Pack(
      &*packed, pack::MakeLeafEntries(points, rids)));

  // 4. The same data inserted dynamically (Guttman's INSERT).
  auto dynamic = rtree::RTree::Create(&pool, options);
  PICTDB_CHECK(dynamic.ok());
  for (size_t i = 0; i < points.size(); ++i) {
    PICTDB_CHECK_OK(
        dynamic->Insert(geom::Rect::FromPoint(points[i]), rids[i]));
  }

  // 5. Direct spatial search: "find everything in this window".
  const geom::Rect window = geom::Rect::FromCenterHalfExtent(500, 100,
                                                             500, 100);
  rtree::SearchStats packed_stats, dynamic_stats;
  auto packed_hits = packed->SearchContainedIn(window, &packed_stats);
  auto dynamic_hits = dynamic->SearchContainedIn(window, &dynamic_stats);
  PICTDB_CHECK(packed_hits.ok() && dynamic_hits.ok());
  PICTDB_CHECK(packed_hits->size() == dynamic_hits->size());

  std::printf("window %s -> %zu objects\n",
              geom::ToString(window).c_str(), packed_hits->size());
  std::printf("  packed tree visited %llu nodes, dynamic tree %llu\n",
              static_cast<unsigned long long>(packed_stats.nodes_visited),
              static_cast<unsigned long long>(dynamic_stats.nodes_visited));

  // 6. Tree quality, the paper's C/O/D/N metrics.
  auto pq = rtree::MeasureTree(*packed);
  auto dq = rtree::MeasureTree(*dynamic);
  PICTDB_CHECK(pq.ok() && dq.ok());
  std::printf("packed : %s\n", rtree::ToString(*pq).c_str());
  std::printf("dynamic: %s\n", rtree::ToString(*dq).c_str());
  return 0;
}
