// google-benchmark microbenchmarks: point/window search latency across
// builders (INSERT vs the packers) and dataset sizes — the wall-clock
// companion to Table 1's "nodes visited" column — and the juxtaposition
// (spatial join) of a point tree with a rect overlay.
//
// `search_micro --json [objects]` bypasses google-benchmark and emits a
// single JSON object on stdout measuring the SIMD hot path: window
// throughput under the scalar reference vs the runtime-selected kernel
// family, batched-search throughput, and per-node SoA decode cost.
// tools/bench_diff.py compares two such dumps (EXPERIMENTS.md records
// the before/after for the SoA + kernel change).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/join.h"
#include "rtree/traverse.h"
#include "simd/dispatch.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace {

using pictdb::Random;
using pictdb::bench::FakeRid;
using pictdb::bench::PointEntries;
using pictdb::bench::RectEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;
using pictdb::pack::PackOptions;
using pictdb::pack::PackStrategy;

enum BuilderId : int64_t {
  kInsert = 0,
  kPackNN = 1,
  kLowX = 2,
  kStr = 3,
  kHilbert = 4,
};

TreeEnv BuildTree(int64_t builder, size_t n) {
  Random rng(7000 + n);
  const auto pts =
      pictdb::workload::UniformPoints(&rng, n, pictdb::workload::PaperFrame());
  pictdb::rtree::RTreeOptions opts;  // page-derived branching (~101)
  TreeEnv env = TreeEnv::Make(opts, 4096);
  if (builder == kInsert) {
    for (size_t i = 0; i < pts.size(); ++i) {
      PICTDB_CHECK_OK(env.tree->Insert(Rect::FromPoint(pts[i]), FakeRid(i)));
    }
    return env;
  }
  PackOptions packer;  // kPackNN: the paper's PACK
  if (builder == kLowX || builder == kHilbert) {
    packer.strategy = PackStrategy::kSortChunk;
  }
  if (builder == kHilbert) {
    packer.criterion = pictdb::pack::SortCriterion::kHilbert;
  }
  if (builder == kStr) packer.strategy = PackStrategy::kStr;
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(env.tree.get(), PointEntries(pts), packer));
  return env;
}

const char* BuilderName(int64_t builder) {
  static const char* const kNames[] = {"insert", "pack-nn", "lowx", "str",
                                       "hilbert"};
  return kNames[builder];
}

void BM_WindowSearch(benchmark::State& state) {
  const int64_t builder = state.range(0);
  const size_t n = static_cast<size_t>(state.range(1));
  TreeEnv env = BuildTree(builder, n);
  Random rng(1);
  const auto windows = pictdb::workload::RandomWindowQueries(
      &rng, 512, 0.01, pictdb::workload::PaperFrame());
  size_t i = 0;
  uint64_t results = 0;
  for (auto _ : state) {
    auto hits = env.tree->SearchIntersects(windows[i++ & 511]);
    PICTDB_CHECK(hits.ok());
    results += hits->size();
    benchmark::DoNotOptimize(results);
  }
  state.SetLabel(BuilderName(builder));
  state.counters["results/query"] =
      static_cast<double>(results) / state.iterations();
}

void BM_PointSearch(benchmark::State& state) {
  const int64_t builder = state.range(0);
  const size_t n = static_cast<size_t>(state.range(1));
  TreeEnv env = BuildTree(builder, n);
  Random rng(2);
  const auto queries = pictdb::workload::RandomPointQueries(
      &rng, 512, pictdb::workload::PaperFrame());
  size_t i = 0;
  for (auto _ : state) {
    auto hits = env.tree->SearchPoint(queries[i++ & 511]);
    PICTDB_CHECK(hits.ok());
    benchmark::DoNotOptimize(hits->size());
  }
  state.SetLabel(BuilderName(builder));
}

void SearchArgs(benchmark::internal::Benchmark* b) {
  for (int64_t builder : {kInsert, kPackNN, kLowX, kStr, kHilbert}) {
    for (int64_t n : {10000, 100000}) {
      b->Args({builder, n});
    }
  }
}

/// The repository benchmark's `join` workload without the wire: a
/// Hilbert sort-chunk tree of 100k uniform points joined with one of
/// 1000 8x8 rects. `pairs_tested/join` is the rect tests one join makes,
/// `fetches/join` the pages it fetches from the two buffer pools (below
/// nodes visited when decoded nodes are reused across pair frames).
void BM_SpatialJoin(benchmark::State& state) {
  Random rng(1985);
  const Rect frame = pictdb::workload::PaperFrame();
  const auto pts = pictdb::workload::UniformPoints(&rng, 100000, frame);
  std::vector<Rect> overlay;
  for (const Point& c : pictdb::workload::UniformPoints(&rng, 1000, frame)) {
    overlay.push_back(Rect::FromCenterHalfExtent(c.x, 4.0, c.y, 4.0));
  }
  const PackOptions hilbert = *pictdb::bench::PackerNamed("hilbert");
  TreeEnv objects = TreeEnv::Make({}, 4096);
  TreeEnv rects = TreeEnv::Make({}, 4096);
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(objects.tree.get(), PointEntries(pts), hilbert));
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(rects.tree.get(), RectEntries(overlay), hilbert));
  pictdb::rtree::JoinStats stats;
  const uint64_t fetches_before = objects.pool->stats().fetches.load() +
                                  rects.pool->stats().fetches.load();
  for (auto _ : state) {
    uint64_t pairs = 0;
    PICTDB_CHECK_OK(pictdb::rtree::SpatialJoin(
        *objects.tree, *rects.tree,
        [&pairs](const auto&, const auto&) { ++pairs; }, &stats));
    benchmark::DoNotOptimize(pairs);
  }
  const double joins = static_cast<double>(state.iterations());
  state.counters["pairs_tested/join"] =
      static_cast<double>(stats.pairs_tested) / joins;
  state.counters["results/join"] = static_cast<double>(stats.results) / joins;
  state.counters["nodes/join"] =
      static_cast<double>(stats.nodes_visited) / joins;
  const uint64_t fetches = objects.pool->stats().fetches.load() +
                           rects.pool->stats().fetches.load() -
                           fetches_before;
  state.counters["fetches/join"] = static_cast<double>(fetches) / joins;
}

BENCHMARK(BM_WindowSearch)->Apply(SearchArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PointSearch)->Apply(SearchArgs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SpatialJoin)->Unit(benchmark::kMillisecond);

// --- `--json` mode: the SoA/SIMD hot-path numbers -------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Queries/second for one full pass set over `windows` under whatever
/// kernel family is currently active. `passes` chosen so the timed
/// region is long enough to swamp clock resolution.
double WindowQps(const pictdb::rtree::RTree& tree,
                 const std::vector<Rect>& windows, size_t passes,
                 uint64_t* results_out) {
  uint64_t results = 0;
  const auto start = Clock::now();
  for (size_t p = 0; p < passes; ++p) {
    for (const Rect& w : windows) {
      auto hits = tree.SearchIntersects(w);
      PICTDB_CHECK(hits.ok());
      results += hits->size();
    }
  }
  const double secs = SecondsSince(start);
  benchmark::DoNotOptimize(results);
  if (results_out != nullptr) *results_out = results;
  return static_cast<double>(passes * windows.size()) / secs;
}

/// Windows/second through SearchBatch in groups of `batch_size`.
double BatchQps(const pictdb::rtree::RTree& tree,
                const std::vector<Rect>& windows, size_t batch_size,
                size_t passes) {
  uint64_t results = 0;
  const auto start = Clock::now();
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i = 0; i < windows.size(); i += batch_size) {
      const size_t n = std::min(batch_size, windows.size() - i);
      auto batch = tree.SearchBatch(
          std::span<const Rect>(windows.data() + i, n));
      PICTDB_CHECK(batch.ok());
      for (const auto& bw : *batch) results += bw.hits.size();
    }
  }
  const double secs = SecondsSince(start);
  benchmark::DoNotOptimize(results);
  return static_cast<double>(passes * windows.size()) / secs;
}

/// Every node page id, gathered by a whole-tree walk.
std::vector<pictdb::storage::PageId> CollectNodeIds(
    const pictdb::rtree::RTree& tree) {
  std::vector<pictdb::storage::PageId> ids;
  pictdb::rtree::Walk collect(
      [&](const pictdb::rtree::NodeRef& ref, const pictdb::rtree::SoaNode&) {
        ids.push_back(ref.id);
        return pictdb::Status::OK();
      });
  PICTDB_CHECK_OK(pictdb::rtree::TraverseTree(tree, collect));
  return ids;
}

/// Nanoseconds per SoA node decode, amortized over every node in the
/// tree (pages stay pool-resident, so this isolates the transpose).
double DecodeNsPerNode(const pictdb::rtree::RTree& tree,
                       const std::vector<pictdb::storage::PageId>& ids,
                       size_t passes) {
  pictdb::rtree::SoaNode scratch;
  uint64_t lanes = 0;
  const auto start = Clock::now();
  for (size_t p = 0; p < passes; ++p) {
    for (const auto id : ids) {
      PICTDB_CHECK_OK(tree.ReadNodePageSoa(id, &scratch));
      lanes += scratch.count();
    }
  }
  const double secs = SecondsSince(start);
  benchmark::DoNotOptimize(lanes);
  return secs * 1e9 / static_cast<double>(passes * ids.size());
}

int RunJsonMode(size_t objects) {
  constexpr size_t kWindows = 512;
  constexpr size_t kPasses = 8;
  constexpr size_t kBatchSize = 8;

  TreeEnv env = BuildTree(kPackNN, objects);
  Random rng(1);
  const auto windows = pictdb::workload::RandomWindowQueries(
      &rng, kWindows, 0.01, pictdb::workload::PaperFrame());
  const auto node_ids = CollectNodeIds(*env.tree);

  // Warm the pool and the allocator before any timed region.
  uint64_t results = 0;
  (void)WindowQps(*env.tree, windows, 1, &results);

  double scalar_qps = 0, active_qps = 0;
  {
    pictdb::simd::ScopedKernelOverride force(
        &pictdb::simd::ScalarKernels());
    scalar_qps = WindowQps(*env.tree, windows, kPasses, nullptr);
  }
  active_qps = WindowQps(*env.tree, windows, kPasses, &results);
  const double batch_qps = BatchQps(*env.tree, windows, kBatchSize, kPasses);
  const double decode_ns = DecodeNsPerNode(*env.tree, node_ids, kPasses * 4);

  std::printf(
      "{\n"
      "  \"objects\": %zu,\n"
      "  \"windows\": %zu,\n"
      "  \"passes\": %zu,\n"
      "  \"batch_size\": %zu,\n"
      "  \"kernel\": \"%s\",\n"
      "  \"simd_active\": %s,\n"
      "  \"nodes\": %zu,\n"
      "  \"results_per_query\": %.2f,\n"
      "  \"scalar_window_qps\": %.1f,\n"
      "  \"active_window_qps\": %.1f,\n"
      "  \"simd_speedup\": %.3f,\n"
      "  \"batch_window_qps\": %.1f,\n"
      "  \"batch_speedup_vs_scalar\": %.3f,\n"
      "  \"decode_ns_per_node\": %.1f\n"
      "}\n",
      objects, kWindows, kPasses, kBatchSize,
      pictdb::simd::ActiveKernels().name,
      pictdb::simd::SimdActive() ? "true" : "false", node_ids.size(),
      static_cast<double>(results) / (kPasses * kWindows),
      scalar_qps, active_qps, active_qps / scalar_qps, batch_qps,
      batch_qps / scalar_qps, decode_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t objects = 100000;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (json && !arg.starts_with("--")) {
      objects = static_cast<size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }
  if (json) return RunJsonMode(objects);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
