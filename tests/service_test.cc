// Concurrency tests for the query service: 8 caller threads x 1k mixed
// window/kNN RunSync calls over one shared PACK-built tree, validated
// against a single-threaded oracle; plus refusal after shutdown,
// metrics aggregation, and concurrent PSQL execution over a shared
// catalog. Run these under -fsanitize=thread as well as plain (see
// README: cmake -B build-tsan -S . -DPICTDB_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "wal/durable_tree.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"

#include "tree_check.h"

namespace pictdb::service {
namespace {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::RTree;
using testing_support::TreeIsValid;

constexpr size_t kThreads = 8;
constexpr size_t kQueriesPerThread = 1000;
constexpr size_t kDistinct = 2000;
constexpr size_t kObjects = 20000;

/// Shared fixture: a PACK-built tree over kObjects uniform points,
/// behind a deliberately small sharded pool so concurrent traversals
/// continuously evict and reload pages.
class ServiceStressTest : public ::testing::Test {
 protected:
  ServiceStressTest()
      : disk_(512), pool_(&disk_, /*capacity=*/64, /*shards=*/4) {
    Random rng(42);
    points_ = workload::UniformPoints(&rng, kObjects, workload::PaperFrame());
    std::vector<storage::Rid> rids;
    rids.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
    }
    auto tree = RTree::Create(&pool_);
    PICTDB_CHECK(tree.ok());
    tree_ = std::make_unique<RTree>(std::move(tree).value());
    PICTDB_CHECK_OK(pack::Pack(
        tree_.get(), pack::MakeLeafEntries(points_, rids)));

    // Query mix and single-threaded oracle. kDistinct distinct queries;
    // the stress test runs each several times to reach the full
    // 8x1000 volume without paying the brute-force oracle 8000 times.
    Random qrng(7);
    const size_t n = kDistinct;
    queries_.reserve(n);
    expected_.reserve(n);
    // GCC 12 falsely flags the Query variant's inactive-alternative
    // bytes as "maybe uninitialized" when a temporary is moved into the
    // vector (same known false positive as net/protocol.cc).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
    for (size_t i = 0; i < n; ++i) {
      if (i % 2 == 0) {
        const double cx = qrng.UniformDouble(0, 1000);
        const double cy = qrng.UniformDouble(0, 1000);
        const Rect w = Rect::FromCenterHalfExtent(cx, 15, cy, 15);
        queries_.push_back(WindowQuery{w, /*contained_only=*/false});
        size_t count = 0;
        for (const Point& p : points_) {
          if (w.Contains(p)) ++count;
        }
        expected_.push_back(count);
      } else {
        const Point q{qrng.UniformDouble(0, 1000),
                      qrng.UniformDouble(0, 1000)};
        queries_.push_back(KnnQuery{q, /*k=*/5});
        expected_.push_back(5);
      }
    }
#pragma GCC diagnostic pop
  }

  /// Teardown: the shared tree must survive the concurrent battering
  /// with every structural invariant intact (parent MBRs, levels, CRCs,
  /// no leaked pins).
  void TearDown() override { EXPECT_TRUE(TreeIsValid(*tree_)); }

  storage::InMemoryDiskManager disk_;
  storage::BufferPool pool_;
  std::unique_ptr<RTree> tree_;
  std::vector<Point> points_;
  std::vector<Query> queries_;
  std::vector<size_t> expected_;
};

TEST_F(ServiceStressTest, EightThreadsMatchSingleThreadedOracle) {
  const size_t total = kThreads * kQueriesPerThread;
  QueryService service(tree_.get(), /*executor=*/nullptr);

  // kThreads caller threads, each running its own kQueriesPerThread
  // queries back to back on its own stack.
  std::vector<StatusOr<QueryResult>> outcomes(total,
                                              Status::Internal("not run"));
  ParallelFor(kThreads, kThreads, [&](size_t t) {
    for (size_t i = t * kQueriesPerThread; i < (t + 1) * kQueriesPerThread;
         ++i) {
      outcomes[i] = service.RunSync(queries_[i % kDistinct]);
    }
  });

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const StatusOr<QueryResult>& outcome = outcomes[i];
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const QueryResult& r = outcome.value();
    const size_t qi = i % kDistinct;
    if (qi % 2 == 0) {
      EXPECT_EQ(r.hits.size(), expected_[qi]) << "window query " << i;
    } else {
      ASSERT_EQ(r.neighbors.size(), expected_[qi]) << "knn query " << i;
      for (size_t j = 1; j < r.neighbors.size(); ++j) {
        EXPECT_LE(r.neighbors[j - 1].distance, r.neighbors[j].distance);
      }
    }
    EXPECT_GT(r.stats.nodes_visited, 0u);
  }

  const ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.submitted, total);
  EXPECT_EQ(m.completed, total);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.total_nodes_visited, 0u);
  EXPECT_GE(m.max_latency_us, 1u);
  // No pins may leak across eight thousand concurrent traversals.
  EXPECT_EQ(pool_.pinned_frames(), 0u);
}

TEST_F(ServiceStressTest, RunSyncAfterShutdownIsRefused) {
  QueryService service(tree_.get(), nullptr);
  ASSERT_TRUE(service.RunSync(queries_[0]).ok());
  service.Shutdown();
  service.Shutdown();  // idempotent

  for (size_t i = 0; i < 3; ++i) {
    const StatusOr<QueryResult> late = service.RunSync(queries_[i]);
    ASSERT_FALSE(late.ok());
    EXPECT_TRUE(late.status().IsInvalidArgument())
        << late.status().ToString();
  }
  const ServiceMetricsSnapshot m = service.Metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.rejected, 3u);
  EXPECT_EQ(m.failed, 0u);
}

TEST(ServicePsqlTest, ConcurrentSelectsOverSharedCatalog) {
  storage::InMemoryDiskManager disk(1024);
  storage::BufferPool pool(&disk, 1 << 12, /*shards=*/8);
  rel::Catalog catalog(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog, 4));
  psql::Executor executor(&catalog);

  // Single-threaded reference.
  const auto oracle = executor.Query(
      "select city, population, loc from cities on us-map "
      "at loc covered-by {-74 +- 4, 41 +- 3}");
  ASSERT_TRUE(oracle.ok());
  const size_t expected_rows = oracle.value().rows.size();
  ASSERT_GT(expected_rows, 0u);

  QueryService service(nullptr, &executor);

  std::vector<StatusOr<QueryResult>> outcomes(400,
                                              Status::Internal("not run"));
  ParallelFor(4, outcomes.size(), [&](size_t i) {
    outcomes[i] = service.RunSync(PsqlQuery{
        "select city, population, loc from cities on us-map "
        "at loc covered-by {-74 +- 4, 41 +- 3}"});
  });
  for (const StatusOr<QueryResult>& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome.value().table.has_value());
    EXPECT_EQ(outcome.value().table->rows.size(), expected_rows);
    EXPECT_TRUE(outcome.value().table->stats.used_spatial_index);
  }
  EXPECT_EQ(service.Metrics().completed, 400u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(ServiceJoinTest, JoinQueryCountsIntersectingPairs) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 256, /*shards=*/2);

  auto make_tree = [&](uint64_t seed) {
    Random r(seed);
    const auto pts =
        workload::UniformPoints(&r, 2000, workload::PaperFrame());
    std::vector<storage::Rid> rids;
    for (size_t i = 0; i < pts.size(); ++i) {
      rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
    }
    auto tree = RTree::Create(&pool);
    PICTDB_CHECK(tree.ok());
    auto owned = std::make_unique<RTree>(std::move(tree).value());
    PICTDB_CHECK_OK(pack::Pack(owned.get(), pack::MakeLeafEntries(pts, rids),
                               {.strategy = pack::PackStrategy::kSortChunk}));
    return owned;
  };
  auto left = make_tree(1);
  auto right = make_tree(2);

  // Oracle join count, single-threaded.
  rtree::JoinStats oracle;
  uint64_t oracle_pairs = 0;
  PICTDB_CHECK_OK(rtree::SpatialJoin(
      *left, *right,
      [&oracle_pairs](const rtree::LeafHit&, const rtree::LeafHit&) {
        ++oracle_pairs;
      },
      &oracle));

  QueryService service(left.get(), nullptr);
  std::vector<StatusOr<QueryResult>> outcomes(16,
                                              Status::Internal("not run"));
  ParallelFor(4, outcomes.size(), [&](size_t i) {
    outcomes[i] = service.RunSync(JoinQuery{right.get()});
  });
  for (const StatusOr<QueryResult>& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().join_pairs, oracle_pairs);
  }
}

// --- Write path ---------------------------------------------------------

TEST(ServiceWriteTest, ExecuteWriteRequiresABoundWriter) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 256);
  auto tree = RTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  QueryService svc(&*tree, /*executor=*/nullptr, {});
  const Status status = svc.ExecuteWrite(
      InsertOp{Rect(0, 0, 1, 1), storage::Rid{1, 0}});
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_EQ(svc.write_metrics().committed(), 0u);
}

TEST(ServiceWriteTest, WritesCommitCountAndFireHook) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 1024);
  auto created = wal::DurableRTree::Create(&pool);
  ASSERT_TRUE(created.ok());
  auto durable = std::move(created).value();

  QueryService svc(&durable->tree(), /*executor=*/nullptr, {});
  svc.BindWriter(durable.get());
  std::atomic<uint64_t> hook_calls{0};
  svc.SetCommitHook([&] { hook_calls.fetch_add(1); });

  ASSERT_TRUE(
      svc.ExecuteWrite(InsertOp{Rect(0, 0, 1, 1), storage::Rid{1, 0}}).ok());
  ASSERT_TRUE(
      svc.ExecuteWrite(InsertOp{Rect(5, 5, 6, 6), storage::Rid{2, 0}}).ok());
  ASSERT_TRUE(svc.ExecuteWrite(UpdateOp{Rect(0, 0, 1, 1), storage::Rid{1, 0},
                                        Rect(9, 9, 10, 10),
                                        storage::Rid{1, 0}})
                  .ok());
  ASSERT_TRUE(
      svc.ExecuteWrite(DeleteOp{Rect(5, 5, 6, 6), storage::Rid{2, 0}}).ok());
  EXPECT_EQ(hook_calls.load(), 4u);

  // A precondition miss commits nothing and must NOT fire the hook
  // (the server relies on this: no invalidation without a commit).
  const Status miss =
      svc.ExecuteWrite(DeleteOp{Rect(5, 5, 6, 6), storage::Rid{2, 0}});
  EXPECT_TRUE(miss.IsNotFound()) << miss.ToString();
  EXPECT_EQ(hook_calls.load(), 4u);

  const WriteMetricsSnapshot wm = svc.write_metrics();
  EXPECT_EQ(wm.inserts, 2u);
  EXPECT_EQ(wm.updates, 1u);
  EXPECT_EQ(wm.deletes, 1u);
  EXPECT_EQ(wm.not_found, 1u);
  EXPECT_EQ(wm.failed, 0u);
  EXPECT_EQ(wm.commit_latency.count(), 4u);
  EXPECT_EQ(durable->tree().Size(), 1u);
}

TEST(ServiceWriteTest, ConcurrentCallerThreadWritesAllCommit) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 1024);
  auto created = wal::DurableRTree::Create(&pool);
  ASSERT_TRUE(created.ok());
  auto durable = std::move(created).value();
  QueryService svc(&durable->tree(), /*executor=*/nullptr, {});
  svc.BindWriter(durable.get());

  // ExecuteWrite runs on the caller's thread (the network server's
  // serving threads call it this way); the durable tree's commit lock
  // serializes the writers.
  constexpr size_t kWrites = 64;
  constexpr size_t kThreads = 4;
  std::atomic<uint64_t> ok_count{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = t; i < kWrites; i += kThreads) {
        const double x = static_cast<double>(i);
        const Status status = svc.ExecuteWrite(
            InsertOp{Rect(x, x, x + 1, x + 1),
                     storage::Rid{static_cast<storage::PageId>(i + 1), 0}});
        if (status.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(ok_count.load(), kWrites);
  EXPECT_EQ(durable->tree().Size(), kWrites);
}

// Batched traversals share one DFS across all windows of a request;
// this must stay safe (and TSan-clean) while a writer commits latched
// mutations underneath. Each in-flight batch sees some epoch-consistent
// tree, so every hit must intersect its window and carry a rid the
// writer actually inserted; once the writer quiesces, the batch answer
// must equal the single-window answers exactly.
TEST(ServiceWriteTest, BatchedQueriesStayConsistentUnderConcurrentWriter) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 1024);
  auto created = wal::DurableRTree::Create(&pool);
  ASSERT_TRUE(created.ok());
  auto durable = std::move(created).value();

  QueryService svc(&durable->tree(), /*executor=*/nullptr);
  svc.BindWriter(durable.get());

  constexpr size_t kSeedInserts = 256;
  constexpr size_t kRacingInserts = 512;
  constexpr size_t kBatches = 200;

  auto rect_for = [](size_t i) {
    const double x = static_cast<double>(i % 100) * 10.0;
    const double y = static_cast<double>(i / 100) * 10.0;
    return Rect(x, y, x + 4, y + 4);
  };
  for (size_t i = 0; i < kSeedInserts; ++i) {
    ASSERT_TRUE(
        svc.ExecuteWrite(
               InsertOp{rect_for(i),
                        storage::Rid{static_cast<storage::PageId>(i + 1), 0}})
            .ok());
  }

  // Fixed window set reused by every batch; generous extents so most
  // windows are nonempty from the seed inserts alone.
  Random qrng(29);
  std::vector<Rect> windows;
  for (size_t i = 0; i < 6; ++i) {
    windows.push_back(Rect::FromCenterHalfExtent(
        qrng.UniformDouble(0, 1000), qrng.UniformDouble(20, 120),
        qrng.UniformDouble(0, 100), qrng.UniformDouble(20, 120)));
  }

  // Four caller threads run the batches while this thread commits, so
  // traversals race mutations.
  std::vector<StatusOr<QueryResult>> outcomes(kBatches,
                                              Status::Internal("not run"));
  std::thread readers([&] {
    ParallelFor(4, kBatches, [&](size_t b) {
      outcomes[b] =
          svc.RunSync(BatchWindowQuery{windows, /*contained_only=*/false});
    });
  });
  for (size_t b = 0; b < std::min(kBatches, kRacingInserts); ++b) {
    const size_t i = kSeedInserts + b;
    EXPECT_TRUE(svc.ExecuteWrite(
                       InsertOp{rect_for(i),
                                storage::Rid{
                                    static_cast<storage::PageId>(i + 1), 0}})
                    .ok());
  }
  readers.join();
  const size_t total_inserts = kSeedInserts + std::min(kBatches, kRacingInserts);

  for (const StatusOr<QueryResult>& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const QueryResult& r = outcome.value();
    ASSERT_EQ(r.batch.size(), windows.size());
    for (size_t w = 0; w < windows.size(); ++w) {
      EXPECT_FALSE(r.batch[w].degraded);
      for (const rtree::LeafHit& hit : r.batch[w].hits) {
        EXPECT_TRUE(hit.mbr.Intersects(windows[w]));
        const size_t id = hit.rid.page_id;
        ASSERT_GE(id, 1u);
        ASSERT_LE(id, total_inserts);
        EXPECT_TRUE(hit.mbr == rect_for(id - 1));
      }
    }
  }

  // Quiesced: the batch answer must now be exactly the single-window
  // answers, hit for hit.
  const StatusOr<QueryResult> outcome =
      svc.RunSync(BatchWindowQuery{windows, false});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->batch.size(), windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    auto single = durable->tree().SearchIntersects(windows[w]);
    ASSERT_TRUE(single.ok());
    const auto& hits = outcome->batch[w].hits;
    ASSERT_EQ(hits.size(), single->size()) << "window " << w;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_TRUE(hits[i].mbr == (*single)[i].mbr);
      EXPECT_TRUE(hits[i].rid == (*single)[i].rid);
    }
    EXPECT_GT(hits.size(), 0u) << "vacuous window " << w;
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

}  // namespace
}  // namespace pictdb::service
