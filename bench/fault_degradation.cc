// Query throughput and latency vs injected transient-fault rate (0%,
// 0.1%, 1%): how much does the checksum+retry envelope cost when the
// disk misbehaves? The tree sits behind a small pool on a simulated
// disk, so misses dominate and every injected read error forces a
// backoff+retry on the miss path. Emits one JSON line per fault rate.

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
#include "storage/fault_injection.h"
#include "workload/generators.h"

namespace pictdb {
namespace {

constexpr size_t kObjects = 50000;
constexpr size_t kQueries = 2048;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kPoolFrames = 64;  // << leaf count: misses dominate
constexpr size_t kPoolShards = 4;
constexpr size_t kThreads = 4;
constexpr auto kReadLatency = std::chrono::microseconds(50);

struct RunResult {
  double elapsed_ms = 0;
  double qps = 0;
  double avg_latency_us = 0;
  double max_latency_us = 0;
  uint64_t hits = 0;
  uint64_t injected_errors = 0;
  uint64_t retries = 0;
};

RunResult RunAtFaultRate(double fault_rate,
                         const std::vector<geom::Point>& points,
                         const std::vector<geom::Rect>& windows) {
  storage::InMemoryDiskManager base(kPageSize);
  storage::LatencyDiskManager slow(&base, kReadLatency,
                                   std::chrono::microseconds(0));
  storage::FaultPlan plan;
  plan.seed = 0xBEEF;
  plan.transient_read_error_rate = fault_rate;
  storage::FaultInjectionDiskManager faulty(&slow, plan);
  storage::BufferPoolOptions popts;
  popts.max_read_retries = 8;
  storage::BufferPool pool(&faulty, kPoolFrames, kPoolShards, popts);

  std::vector<storage::Rid> rids;
  rids.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  auto tree = rtree::RTree::Create(&pool);
  PICTDB_CHECK(tree.ok());
  PICTDB_CHECK_OK(pack::Pack(
      &tree.value(), pack::MakeLeafEntries(points, rids)));

  service::QueryService svc(&tree.value(), nullptr);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> hits{0};
  ParallelFor(kThreads, windows.size(), [&](size_t i) {
    auto outcome = svc.RunSync(service::WindowQuery{windows[i], false});
    PICTDB_CHECK(outcome.ok()) << outcome.status().ToString();
    hits.fetch_add(outcome.value().hits.size());
  });
  RunResult r;
  r.hits = hits.load();
  r.elapsed_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  r.qps = static_cast<double>(windows.size()) / (r.elapsed_ms / 1000.0);
  const auto metrics = svc.Metrics();
  r.avg_latency_us = metrics.avg_latency_us();
  r.max_latency_us = static_cast<double>(metrics.max_latency_us);
  r.injected_errors = faulty.fault_stats().transient_read_errors;
  r.retries = pool.StatsSnapshot().read_retries;
  return r;
}

void Main() {
  Random rng(42);
  const std::vector<geom::Point> points =
      workload::UniformPoints(&rng, kObjects, workload::PaperFrame());
  Random qrng(7);
  std::vector<geom::Rect> windows;
  windows.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    windows.push_back(geom::Rect::FromCenterHalfExtent(
        qrng.UniformDouble(0, 1000), 10, qrng.UniformDouble(0, 1000), 10));
  }

  std::printf("[\n");
  const double rates[] = {0.0, 0.001, 0.01};
  for (size_t i = 0; i < 3; ++i) {
    const RunResult r = RunAtFaultRate(rates[i], points, windows);
    std::printf("  {\"fault_rate\": %.4f, \"queries\": %zu, "
                "\"elapsed_ms\": %.1f, \"qps\": %.1f, "
                "\"avg_latency_us\": %.1f, \"max_latency_us\": %.0f, "
                "\"hits\": %llu, \"injected_errors\": %llu, "
                "\"retries\": %llu}%s\n",
                rates[i], kQueries, r.elapsed_ms, r.qps, r.avg_latency_us,
                r.max_latency_us,
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.injected_errors),
                static_cast<unsigned long long>(r.retries),
                i + 1 < 3 ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace
}  // namespace pictdb

int main() {
  pictdb::Main();
  return 0;
}
