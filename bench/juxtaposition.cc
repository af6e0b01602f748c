// Juxtaposition ("geographic join", §2.2) benchmark: simultaneous R-tree
// traversal vs the nested-loop baseline, swept over input sizes, plus the
// PSQL-level cities × time-zones join from the paper.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "rtree/join.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"

namespace {

using pictdb::Random;
using pictdb::bench::RectEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Rect;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::printf("R-tree spatial join vs nested loop (rect objects, ~2%% "
              "pairwise intersection)\n\n");
  std::printf("%8s %8s | %12s %12s %10s | %12s %12s\n", "|L|", "|R|",
              "join-pairs", "tree-tested", "tree-ms", "nested-test",
              "nested-ms");

  for (const size_t n : {500u, 2000u, 8000u}) {
    Random rng(42 + n);
    const auto frame = pictdb::workload::PaperFrame();
    auto make_rects = [&rng, &frame](size_t count) {
      std::vector<Rect> out;
      for (size_t i = 0; i < count; ++i) {
        const double x = rng.UniformDouble(frame.lo.x, frame.hi.x - 15);
        const double y = rng.UniformDouble(frame.lo.y, frame.hi.y - 15);
        out.push_back(Rect(x, y, x + rng.UniformDouble(1, 15),
                           y + rng.UniformDouble(1, 15)));
      }
      return out;
    };
    const auto lhs = make_rects(n);
    const auto rhs = make_rects(n);

    pictdb::rtree::RTreeOptions opts;  // page-derived branching
    TreeEnv left = TreeEnv::Make(opts, 4096);
    TreeEnv right = TreeEnv::Make(opts, 4096);
    const pictdb::pack::PackOptions str{
        .strategy = pictdb::pack::PackStrategy::kStr};
    PICTDB_CHECK_OK(pictdb::pack::Pack(left.tree.get(), RectEntries(lhs), str));
    PICTDB_CHECK_OK(
        pictdb::pack::Pack(right.tree.get(), RectEntries(rhs), str));

    size_t tree_results = 0;
    pictdb::rtree::JoinStats tree_stats;
    auto start = std::chrono::steady_clock::now();
    PICTDB_CHECK_OK(pictdb::rtree::SpatialJoin(
        *left.tree, *right.tree,
        [&tree_results](const auto&, const auto&) { ++tree_results; },
        &tree_stats));
    const double tree_ms = MsSince(start);

    size_t nested_results = 0;
    pictdb::rtree::JoinStats nested_stats;
    start = std::chrono::steady_clock::now();
    PICTDB_CHECK_OK(pictdb::rtree::NestedLoopJoin(
        *left.tree, *right.tree,
        [&nested_results](const auto&, const auto&) { ++nested_results; },
        &nested_stats));
    const double nested_ms = MsSince(start);

    PICTDB_CHECK(tree_results == nested_results);
    std::printf("%8zu %8zu | %12zu %12llu %10.2f | %12llu %12.2f\n", n, n,
                tree_results,
                static_cast<unsigned long long>(tree_stats.pairs_tested),
                tree_ms,
                static_cast<unsigned long long>(nested_stats.pairs_tested),
                nested_ms);
  }

  // The paper's PSQL-level juxtaposition.
  std::printf("\nPSQL juxtaposition (cities x time-zones, §2.2):\n");
  pictdb::storage::InMemoryDiskManager disk(1024);
  pictdb::storage::BufferPool pool(&disk, 1 << 14);
  pictdb::rel::Catalog catalog(&pool);
  PICTDB_CHECK_OK(pictdb::workload::BuildUsCatalog(&catalog));
  pictdb::psql::Executor exec(&catalog);
  const auto start = std::chrono::steady_clock::now();
  auto result = exec.Query(
      "select city,zone from cities,time-zones on us-map,time-zone-map "
      "at cities.loc covered-by time-zones.loc");
  PICTDB_CHECK(result.ok());
  std::printf("  %llu rows in %.2f ms via simultaneous traversal "
              "(%llu R-tree nodes touched)\n",
              static_cast<unsigned long long>(result->stats.rows_emitted),
              MsSince(start),
              static_cast<unsigned long long>(
                  result->stats.rtree_nodes_visited));
  return 0;
}
