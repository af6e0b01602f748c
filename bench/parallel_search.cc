// Window-query throughput of the query service at 1/2/4/8 caller
// threads over one shared 100k-object packed R-tree.
//
// The tree sits behind a small sharded buffer pool on a simulated disk
// (LatencyDiskManager): every page miss costs a fixed seek, as in the
// paper's disk-resident setting. That is the regime the service is for —
// threads blocked on different page seeks overlap, so throughput
// scales with the thread count well past a single CPU. Emits one JSON
// line per thread count for the perf trajectory.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb {
namespace {

constexpr size_t kObjects = 100000;
constexpr size_t kQueries = 4096;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kPoolFrames = 128;  // << leaf count: misses dominate
constexpr size_t kPoolShards = 8;
constexpr auto kReadLatency = std::chrono::microseconds(150);

double RunAtThreadCount(const rtree::RTree& tree,
                        const std::vector<geom::Rect>& windows,
                        size_t threads, uint64_t* hits_out,
                        double* avg_nodes_out) {
  service::QueryService svc(&tree, nullptr);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> hits{0};
  ParallelFor(threads, windows.size(), [&](size_t i) {
    auto outcome = svc.RunSync(service::WindowQuery{windows[i], false});
    PICTDB_CHECK(outcome.ok()) << outcome.status().ToString();
    hits.fetch_add(outcome.value().hits.size());
  });
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  *hits_out = hits.load();
  *avg_nodes_out = svc.Metrics().avg_nodes_visited();
  return elapsed_ms;
}

void Main() {
  storage::InMemoryDiskManager disk(kPageSize);

  // Build phase: full-speed pool, no simulated latency.
  storage::PageId meta_page;
  {
    storage::BufferPool build_pool(&disk, 1 << 15);
    auto tree = rtree::RTree::Create(&build_pool);
    PICTDB_CHECK(tree.ok());
    Random rng(1985);
    const auto points =
        workload::UniformPoints(&rng, kObjects, workload::PaperFrame());
    std::vector<storage::Rid> rids;
    rids.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
    }
    pack::PackOptions pack_options;
    pack_options.criterion = pack::SortCriterion::kHilbert;
    pack_options.strategy = pack::PackStrategy::kSortChunk;
    PICTDB_CHECK_OK(pack::Pack(
        &tree.value(), pack::MakeLeafEntries(points, rids), pack_options));
    meta_page = tree.value().meta_page();
    PICTDB_CHECK_OK(build_pool.FlushAll());
  }

  // Query phase: every page touch pays a simulated seek.
  storage::LatencyDiskManager slow_disk(&disk, kReadLatency,
                                        kReadLatency);
  storage::BufferPool pool(&slow_disk, kPoolFrames, kPoolShards);
  auto tree = rtree::RTree::Open(&pool, meta_page);
  PICTDB_CHECK(tree.ok());

  Random qrng(7);
  std::vector<geom::Rect> windows;
  windows.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const double cx = qrng.UniformDouble(0, 1000);
    const double cy = qrng.UniformDouble(0, 1000);
    windows.push_back(geom::Rect::FromCenterHalfExtent(cx, 8, cy, 8));
  }

  double base_ms = 0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    uint64_t hits = 0;
    double avg_nodes = 0;
    const double elapsed_ms =
        RunAtThreadCount(tree.value(), windows, threads, &hits, &avg_nodes);
    if (threads == 1) base_ms = elapsed_ms;
    const double qps = 1000.0 * static_cast<double>(kQueries) / elapsed_ms;
    std::printf(
        "{\"bench\":\"parallel_search\",\"objects\":%zu,\"threads\":%zu,"
        "\"queries\":%zu,\"pool_frames\":%zu,\"pool_shards\":%zu,"
        "\"read_latency_us\":%lld,\"elapsed_ms\":%.1f,\"qps\":%.1f,"
        "\"avg_nodes_visited\":%.2f,\"hits\":%llu,"
        "\"speedup_vs_1t\":%.2f}\n",
        kObjects, threads, kQueries, kPoolFrames, kPoolShards,
        static_cast<long long>(kReadLatency.count()), elapsed_ms, qps,
        avg_nodes, static_cast<unsigned long long>(hits),
        base_ms / elapsed_ms);
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace pictdb

int main() {
  pictdb::Main();
  return 0;
}
