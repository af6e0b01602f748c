// Reproduces Table 1 of Roussopoulos & Leifker (SIGMOD 1985): Guttman's
// INSERT vs algorithm PACK over J uniform random points in [0,1000]²,
// branching factor 4, reporting coverage (C), overlap (O), depth (D),
// node count (N) and average nodes visited (A) over random point queries.
//
// The paper's text says 1000 queries while the table caption says 100; we
// run 1000 (set --queries to change). Absolute C/O values depend on the
// random point sets, so expect the paper's *shape*: PACK's coverage about
// half of INSERT's, overlap smaller by orders of magnitude, fewer nodes,
// smaller depth, and A lower by 3-10x, growing with J much more slowly.
//
// `--packer=nn|lowx|hilbert|str` swaps the packed columns' loader (the
// default, nn, is the paper's PACK), so the same data and queries compare
// INSERT with any of the bulk loaders.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench_util.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace {

using pictdb::Random;
using pictdb::bench::FakeRid;
using pictdb::bench::PackerNamed;
using pictdb::bench::PointEntries;
using pictdb::bench::TreeEnv;
using pictdb::rtree::AverageNodesVisited;
using pictdb::rtree::MeasureTree;
using pictdb::rtree::RTreeOptions;
using pictdb::rtree::TreeQuality;

constexpr int kJValues[] = {10,  25,  50,  75,  100, 125, 150, 175, 200,
                            250, 300, 400, 500, 600, 700, 800, 900};

RTreeOptions PaperOptions() {
  RTreeOptions opts;
  opts.max_entries = 4;  // the paper's illustrative branching factor
  opts.min_entries = 2;
  return opts;
}

struct Row {
  TreeQuality q;
  double avg_visited = 0.0;        // A: random point queries (paper's text)
  double avg_visited_data = 0.0;   // A': membership queries on the data
  double avg_visited_window = 0.0; // A'': 1%-selectivity window queries
};

template <typename Tree>
double WindowVisits(const Tree& tree,
                    const std::vector<pictdb::geom::Rect>& windows) {
  uint64_t total = 0;
  for (const auto& w : windows) {
    pictdb::rtree::SearchStats stats;
    PICTDB_CHECK_OK(tree.SearchIntersects(w, &stats).status());
    total += stats.nodes_visited;
  }
  return windows.empty() ? 0.0
                         : static_cast<double>(total) / windows.size();
}

Row Measure(const pictdb::rtree::RTree& tree,
            const std::vector<pictdb::geom::Point>& pts,
            const std::vector<pictdb::geom::Point>& queries,
            const std::vector<pictdb::geom::Rect>& windows) {
  Row row;
  auto q = MeasureTree(tree);
  PICTDB_CHECK(q.ok()) << q.status().ToString();
  row.q = *q;
  auto a = AverageNodesVisited(tree, queries);
  PICTDB_CHECK(a.ok()) << a.status().ToString();
  row.avg_visited = *a;
  auto ad = AverageNodesVisited(tree, pts);
  PICTDB_CHECK(ad.ok()) << ad.status().ToString();
  row.avg_visited_data = *ad;
  row.avg_visited_window = WindowVisits(tree, windows);
  return row;
}

Row BuildWithInsert(const std::vector<pictdb::geom::Point>& pts,
                    const std::vector<pictdb::geom::Point>& queries,
                    const std::vector<pictdb::geom::Rect>& windows) {
  TreeEnv env = TreeEnv::Make(PaperOptions(), /*page_size=*/256);
  for (size_t i = 0; i < pts.size(); ++i) {
    PICTDB_CHECK_OK(
        env.tree->Insert(pictdb::geom::Rect::FromPoint(pts[i]), FakeRid(i)));
  }
  return Measure(*env.tree, pts, queries, windows);
}

Row BuildWithPack(const std::vector<pictdb::geom::Point>& pts,
                  const std::vector<pictdb::geom::Point>& queries,
                  const std::vector<pictdb::geom::Rect>& windows,
                  const pictdb::pack::PackOptions& packer) {
  TreeEnv env = TreeEnv::Make(PaperOptions(), /*page_size=*/256);
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(env.tree.get(), PointEntries(pts), packer));
  return Measure(*env.tree, pts, queries, windows);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 19850528;  // SIGMOD'85 began May 28, 1985
  size_t num_queries = 1000;
  std::string packer_name = "nn";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--packer=", 9) == 0) {
      packer_name = argv[i] + 9;
    }
  }
  const std::optional<pictdb::pack::PackOptions> packer =
      PackerNamed(packer_name);
  if (!packer.has_value()) {
    std::fprintf(stderr, "--packer must be nn, lowx, hilbert or str\n");
    return 2;
  }
  // The paper's PACK keeps its historical column label.
  const std::string label = packer_name == "nn" ? "pack" : packer_name;
  const std::string c_label = "C(" + label + ")";
  const std::string o_label = "O(" + label + ")";

  std::printf("Table 1 reproduction (seed=%llu, %zu point queries)\n",
              static_cast<unsigned long long>(seed), num_queries);
  std::printf(
      "A   = avg nodes visited, random uniform point queries (paper text)\n"
      "A'  = avg nodes visited, membership queries on the J data points\n"
      "A'' = avg nodes visited, 1%%-selectivity window queries\n\n");
  std::printf("%5s | %8s %8s %2s %4s %6s %6s %6s | %8s %8s %2s %4s %6s %6s %6s\n",
              "J", "C(ins)", "O(ins)", "D", "N", "A", "A'", "A''",
              c_label.c_str(), o_label.c_str(), "D", "N", "A", "A'", "A''");
  std::printf("------+---------------------------------------------------"
              "--+------------------------------------------------------\n");

  const auto frame = pictdb::workload::PaperFrame();
  for (const int j : kJValues) {
    // Same data and same queries for both algorithms, as in the paper.
    Random data_rng(seed + static_cast<uint64_t>(j));
    const auto pts = pictdb::workload::UniformPoints(
        &data_rng, static_cast<size_t>(j), frame);
    Random query_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const auto queries =
        pictdb::workload::RandomPointQueries(&query_rng, num_queries, frame);
    const auto windows = pictdb::workload::RandomWindowQueries(
        &query_rng, num_queries, 0.01, frame);

    const Row ins = BuildWithInsert(pts, queries, windows);
    const Row pck = BuildWithPack(pts, queries, windows, *packer);

    std::printf(
        "%5d | %8.0f %8.0f %2u %4llu %6.2f %6.2f %6.2f | %8.0f %8.0f %2u "
        "%4llu %6.2f %6.2f %6.2f\n",
        j, ins.q.coverage, ins.q.overlap, ins.q.depth,
        static_cast<unsigned long long>(ins.q.nodes), ins.avg_visited,
        ins.avg_visited_data, ins.avg_visited_window, pck.q.coverage,
        pck.q.overlap, pck.q.depth,
        static_cast<unsigned long long>(pck.q.nodes), pck.avg_visited,
        pck.avg_visited_data, pck.avg_visited_window);
  }
  std::printf(
      "\nReproduction notes (full analysis in EXPERIMENTS.md):\n"
      "- D and N track the paper's Table 1 almost exactly (e.g. J=900:\n"
      "  paper N=573/302, D=6-ish/4; packed trees are smaller+shallower).\n"
      "- A favours PACK increasingly with J, most visibly for membership\n"
      "  (A') and window (A'') queries.\n"
      "- The paper's absolute C/O values are below the geometric lower\n"
      "  bound for full 4-entry leaves over uniform points and cannot be\n"
      "  matched by any packing; the C/O columns here are the exact\n"
      "  measure-theoretic values under the paper's stated definitions.\n");
  return 0;
}
