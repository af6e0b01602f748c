// Cartographic-database scenario: a large, static map — exactly the
// workload the paper designed PACK for. Builds a 50,000-object map with
// every bulk loader plus dynamic INSERT, compares tree quality, search
// cost, build cost and buffer-pool behaviour under a constrained pool,
// and dumps the packed tree's level-1 MBRs to an SVG (Fig 3.8c style).
//
//   ./build/examples/cartography [objects]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "viz/svg.h"
#include "workload/generators.h"
#include "workload/queries.h"

using namespace pictdb;

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct BuildOutcome {
  rtree::TreeQuality quality;
  double build_seconds = 0.0;
  double window_nodes = 0.0;     // avg nodes visited, 0.1% windows
  uint64_t cold_misses = 0;      // buffer misses with a small pool
};

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  Random rng(2026);
  const auto frame = workload::PaperFrame();

  // A map mixes clustered settlements with scattered landmarks.
  auto pts = workload::ClusteredPoints(&rng, n * 7 / 10, 12, 40.0, frame);
  const auto scattered = workload::UniformPoints(&rng, n - pts.size(), frame);
  pts.insert(pts.end(), scattered.begin(), scattered.end());

  std::vector<storage::Rid> rids;
  rids.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  const auto windows = workload::RandomWindowQueries(&rng, 300, 0.001, frame);

  std::printf("cartographic map: %zu objects, page 4096, branching %zu\n\n",
              pts.size(), rtree::NodePageCapacity(4096));
  std::printf("%-10s %10s %12s %6s %7s %9s %10s %11s\n", "builder",
              "coverage", "overlap", "depth", "nodes", "build(s)",
              "win-nodes", "cold-misses");

  const char* names[] = {"insert", "pack-nn", "lowx", "str", "hilbert",
                         "ins-r*"};
  for (int mode = 0; mode < 6; ++mode) {
    storage::InMemoryDiskManager disk(4096);
    storage::BufferPool pool(&disk, 1 << 16);
    rtree::RTreeOptions tree_options;
    if (mode == 5) {
      // R*-flavoured dynamic baseline: margin-based split plus forced
      // reinsertion.
      tree_options.split = rtree::SplitAlgorithm::kRStar;
      tree_options.forced_reinsert = true;
    }
    auto tree = rtree::RTree::Create(&pool, tree_options);
    PICTDB_CHECK(tree.ok());

    const auto start = std::chrono::steady_clock::now();
    auto items = pack::MakeLeafEntries(pts, rids);
    switch (mode) {
      case 0:
      case 5:
        for (size_t i = 0; i < pts.size(); ++i) {
          PICTDB_CHECK_OK(
              tree->Insert(geom::Rect::FromPoint(pts[i]), rids[i]));
        }
        break;
      case 1:
        PICTDB_CHECK_OK(pack::Pack(&*tree, std::move(items)));
        break;
      case 2:
        PICTDB_CHECK_OK(pack::Pack(
            &*tree, items, {.strategy = pack::PackStrategy::kSortChunk}));
        break;
      case 3:
        PICTDB_CHECK_OK(
            pack::Pack(&*tree, items, {.strategy = pack::PackStrategy::kStr}));
        break;
      case 4:
        PICTDB_CHECK_OK(
            pack::Pack(&*tree, items,
                       {.criterion = pack::SortCriterion::kHilbert,
                        .strategy = pack::PackStrategy::kSortChunk}));
        break;
    }
    const auto built = std::chrono::steady_clock::now();

    BuildOutcome out;
    out.build_seconds = Seconds(start, built);
    auto quality = rtree::MeasureTree(*tree);
    PICTDB_CHECK(quality.ok());
    out.quality = *quality;

    uint64_t visits = 0;
    for (const auto& w : windows) {
      rtree::SearchStats stats;
      PICTDB_CHECK_OK(tree->SearchIntersects(w, &stats).status());
      visits += stats.nodes_visited;
    }
    out.window_nodes = static_cast<double>(visits) / windows.size();

    // Same window workload through a pool of only 16 frames: how hard
    // does each layout hit the "disk"? Flush first so the second pool
    // sees the tree's pages.
    PICTDB_CHECK_OK(pool.FlushAll());
    {
      storage::BufferPool small_pool(&disk, 16);
      auto cold = rtree::RTree::Open(&small_pool, tree->meta_page());
      PICTDB_CHECK(cold.ok());
      for (const auto& w : windows) {
        PICTDB_CHECK_OK(cold->SearchIntersects(w).status());
      }
      out.cold_misses = small_pool.stats().misses;
    }

    std::printf("%-10s %10.0f %12.1f %6u %7llu %9.3f %10.2f %11llu\n",
                names[mode], out.quality.coverage, out.quality.overlap,
                out.quality.depth,
                static_cast<unsigned long long>(out.quality.nodes),
                out.build_seconds, out.window_nodes,
                static_cast<unsigned long long>(out.cold_misses));

    if (mode == 1) {
      // Figure 3.8(c)-style picture: leaf-parent MBRs of the packed tree.
      viz::SvgWriter svg(frame, 900);
      for (size_t i = 0; i < pts.size(); i += 23) {
        svg.AddPoint(pts[i], "gray", 1.0);
      }
      auto level1 = tree->CollectNodeMbrsAtLevel(1);
      PICTDB_CHECK(level1.ok());
      for (const auto& r : *level1) svg.AddRect(r, "crimson", 1.2);
      PICTDB_CHECK_OK(svg.WriteFigure("cartography_packed_level1.svg"));
      std::printf(
          "  (packed level-1 MBRs -> %s)\n",
          pictdb::viz::FigurePath("cartography_packed_level1.svg").c_str());
    }
  }
  std::printf(
      "\nStatic maps pay the packing cost once and get the smallest tree;\n"
      "dynamic INSERT remains available for the occasional update (§3.4).\n");
  return 0;
}
