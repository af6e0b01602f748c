// LatencyHistogram / HistogramSnapshot: bucket math, quantiles, merge,
// concurrent recording, and the per-variant wiring in QueryService.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pack/pack.h"
#include "rtree/rtree.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::service {
namespace {

TEST(HistogramTest, BucketIndexIsMonotoneAndBounded) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    const size_t idx = HistogramSnapshot::BucketIndex(v);
    ASSERT_LT(idx, HistogramSnapshot::kBuckets);
    ASSERT_GE(idx, prev);
    prev = idx;
  }
  // Huge values clamp to the last bucket instead of overflowing.
  EXPECT_EQ(HistogramSnapshot::BucketIndex(~uint64_t{0}),
            HistogramSnapshot::kBuckets - 1);
}

TEST(HistogramTest, BucketLowerBoundInvertsIndex) {
  for (size_t i = 0; i + 1 < HistogramSnapshot::kBuckets; ++i) {
    const uint64_t lo = HistogramSnapshot::BucketLowerBound(i);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(lo), i) << "bucket " << i;
    // The value just below the next bound still lands in bucket i.
    const uint64_t next = HistogramSnapshot::BucketLowerBound(i + 1);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(next - 1), i) << "bucket " << i;
  }
}

TEST(HistogramTest, QuantileErrorIsBounded) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_EQ(s.max, 10000u);
  EXPECT_EQ(s.ValueAtQuantile(1.0), 10000u);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = q * 10000.0;
    const auto got = static_cast<double>(s.ValueAtQuantile(q));
    // Log-linear buckets with 8 sub-buckets: <=12.5% relative error,
    // always from below (lower bucket bound).
    EXPECT_LE(got, exact + 1.0) << "q=" << q;
    EXPECT_GE(got, exact * 0.875 - 1.0) << "q=" << q;
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v : {0, 1, 2, 3, 4, 5, 6, 7}) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  for (uint64_t v = 0; v < 8; ++v) EXPECT_EQ(s.counts[v], 1u);
  EXPECT_EQ(s.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(s.sum, 28u);
}

TEST(HistogramTest, MergeEqualsUnion) {
  LatencyHistogram a, b, both;
  for (uint64_t v = 1; v <= 500; ++v) {
    (v % 2 == 0 ? a : b).Record(v * 3);
    both.Record(v * 3);
  }
  HistogramSnapshot sa = a.Snapshot();
  sa.Merge(b.Snapshot());
  const HistogramSnapshot sb = both.Snapshot();
  EXPECT_EQ(sa.counts, sb.counts);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(sa.max, sb.max);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8, kPer = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPer; ++i) {
        h.Record(static_cast<uint64_t>(t * kPer + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Snapshot().count(),
            static_cast<uint64_t>(kThreads) * kPer);
}

TEST(HistogramTest, SummaryMentionsEveryField) {
  LatencyHistogram h;
  h.Record(100);
  const std::string s = h.Snapshot().Summary();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

TEST(HistogramTest, ServiceRecordsPerVariantLatency) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 1 << 12);
  auto tree = rtree::RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Random rng(7);
  const auto points = workload::UniformPoints(&rng, 500,
                                              workload::PaperFrame());
  std::vector<storage::Rid> rids;
  for (size_t i = 0; i < points.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  ASSERT_TRUE(pack::Pack(&tree.value(), pack::MakeLeafEntries(points, rids),
                         {.strategy = pack::PackStrategy::kSortChunk})
                  .ok());

  QueryService svc(&tree.value(), nullptr);
  ASSERT_TRUE(
      svc.RunSync(WindowQuery{geom::Rect(0, 0, 100, 100), false}).ok());
  ASSERT_TRUE(svc.RunSync(PointQuery{geom::Point{10, 10}}).ok());
  ASSERT_TRUE(svc.RunSync(KnnQuery{geom::Point{1, 2}, 3}).ok());
  // Join without a right tree fails — but still records knn-vs-join
  // variant latency under "join".
  ASSERT_FALSE(svc.RunSync(JoinQuery{nullptr}).ok());

  const ServiceMetricsSnapshot m = svc.Metrics();
  EXPECT_EQ(m.variant_latency[0].count(), 1u);  // window
  EXPECT_EQ(m.variant_latency[1].count(), 1u);  // point
  EXPECT_EQ(m.variant_latency[2].count(), 1u);  // knn
  EXPECT_EQ(m.variant_latency[3].count(), 1u);  // join (failed)
  EXPECT_EQ(m.variant_latency[4].count(), 0u);  // psql: never submitted
  EXPECT_EQ(m.TotalLatency().count(), 4u);
  EXPECT_EQ(m.TotalLatency().count(),
            m.completed + m.failed);
}

}  // namespace
}  // namespace pictdb::service
