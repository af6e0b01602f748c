// Fault-tolerance tests: injected disk faults (transient errors, torn
// writes, bit flips, dead sectors) against the page-checksum + retry +
// degraded-search + scrub-and-repack machinery. All fault sequences are
// seeded, so failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "check/invariants.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "pack/pack.h"
#include "pack/repack.h"
#include "rtree/cursor.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/quarantine.h"
#include "workload/generators.h"

#include "tree_check.h"

namespace pictdb {
namespace {

using geom::Point;
using geom::Rect;
using rtree::RTree;
using rtree::SearchOptions;
using storage::BufferPool;
using storage::BufferPoolOptions;
using storage::FaultInjectionDiskManager;
using storage::FaultPlan;
using storage::InMemoryDiskManager;
using storage::PageId;
using testing_support::TreeIsValid;

/// Backoff sleeps disabled: fault tests retry a lot and must stay fast.
BufferPoolOptions FastRetryOptions(int retries = 8) {
  BufferPoolOptions opts;
  opts.max_read_retries = retries;
  opts.max_write_retries = retries;
  opts.retry_backoff_base = std::chrono::microseconds(0);
  return opts;
}

/// PACK-build a tree over `n` uniform points (rid i = {page i, slot 0}).
std::unique_ptr<RTree> BuildTree(BufferPool* pool, size_t n,
                                 std::vector<Point>* points) {
  Random rng(42);
  *points = workload::UniformPoints(&rng, n, workload::PaperFrame());
  std::vector<storage::Rid> rids;
  rids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rids.push_back(storage::Rid{static_cast<PageId>(i), 0});
  }
  auto tree = RTree::Create(pool);
  PICTDB_CHECK(tree.ok());
  auto owned = std::make_unique<RTree>(std::move(tree).value());
  PICTDB_CHECK_OK(
      pack::Pack(owned.get(), pack::MakeLeafEntries(*points, rids)));
  return owned;
}

std::set<PageId> OracleRids(const std::vector<Point>& points,
                            const Rect& window) {
  std::set<PageId> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (window.Contains(points[i])) out.insert(static_cast<PageId>(i));
  }
  return out;
}

std::set<PageId> HitRids(const std::vector<rtree::LeafHit>& hits) {
  std::set<PageId> out;
  for (const auto& h : hits) out.insert(h.rid.page_id);
  return out;
}

// --- Checksum round trip through the buffer pool ---------------------------

TEST(FaultInjectionTest, ChecksumSurvivesEvictionRoundTrip) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, /*capacity=*/2);
  const uint32_t usable = pool.page_size();
  ASSERT_EQ(usable, 256u - storage::kPageTrailerSize);

  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {  // 4x capacity: forces evict+reload
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    std::memset(guard->mutable_data(), 0x40 + i, usable);
    ids.push_back(guard->id());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto guard = pool.FetchPage(ids[i]);
    ASSERT_TRUE(guard.ok());
    for (uint32_t b = 0; b < usable; ++b) {
      ASSERT_EQ(guard->data()[b], static_cast<char>(0x40 + i));
    }
  }
  EXPECT_EQ(pool.StatsSnapshot().checksum_failures, 0u);
}

// --- Torn writes -----------------------------------------------------------

TEST(FaultInjectionTest, TornWriteIsDetectedByChecksum) {
  constexpr uint32_t kPageSize = 256;
  InMemoryDiskManager base(kPageSize);
  FaultPlan plan;
  plan.torn_write_rate = 1.0;  // every write persists only a prefix
  FaultInjectionDiskManager faulty(&base, plan);

  std::vector<char> page(kPageSize);
  std::vector<char> readback(kPageSize);
  int detected = 0;
  constexpr int kPages = 50;
  for (int i = 0; i < kPages; ++i) {
    const PageId id = faulty.AllocatePage();
    for (uint32_t b = 0; b + storage::kPageTrailerSize < kPageSize; ++b) {
      page[b] = static_cast<char>(0xA0 + i + b);
    }
    storage::StampPageTrailer(page.data(), kPageSize);
    ASSERT_TRUE(faulty.WritePage(id, page.data()).ok());  // lies: torn
    ASSERT_TRUE(faulty.ReadPage(id, readback.data()).ok());
    const Status st =
        storage::VerifyPageTrailer(readback.data(), kPageSize, id);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsDataLoss());
      ++detected;
    }
  }
  EXPECT_EQ(faulty.fault_stats().torn_writes, static_cast<uint64_t>(kPages));
  // A torn write can only sneak past the CRC if the unwritten tail
  // happens to byte-match; with distinct content that is essentially
  // impossible.
  EXPECT_GE(detected, kPages - 1);
}

// --- Transient faults absorbed by retry ------------------------------------

TEST(FaultInjectionTest, TransientReadErrorsAreAbsorbedByRetry) {
  InMemoryDiskManager base(512);
  FaultPlan plan;
  plan.seed = 99;
  plan.transient_read_error_rate = 0.25;
  FaultInjectionDiskManager faulty(&base, plan);
  BufferPool pool(&faulty, /*capacity=*/16, /*shards=*/1,
                  FastRetryOptions());

  std::vector<Point> points;
  auto tree = BuildTree(&pool, 1000, &points);

  const Rect everything = Rect{{-1e9, -1e9}, {1e9, 1e9}};
  auto hits = tree->SearchIntersects(everything);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), points.size());

  EXPECT_GT(faulty.fault_stats().transient_read_errors, 0u);
  EXPECT_GT(pool.StatsSnapshot().read_retries, 0u);
}

TEST(FaultInjectionTest, TransientBitFlipsAreAbsorbedByChecksumRetry) {
  InMemoryDiskManager base(512);
  FaultPlan plan;
  plan.seed = 7;
  plan.read_bit_flip_rate = 0.2;
  FaultInjectionDiskManager faulty(&base, plan);
  BufferPool pool(&faulty, /*capacity=*/16, /*shards=*/1,
                  FastRetryOptions());

  std::vector<Point> points;
  auto tree = BuildTree(&pool, 1000, &points);

  const Rect everything = Rect{{-1e9, -1e9}, {1e9, 1e9}};
  auto hits = tree->SearchIntersects(everything);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), points.size());

  EXPECT_GT(faulty.fault_stats().bit_flips, 0u);
  EXPECT_GT(pool.StatsSnapshot().checksum_failures, 0u);
  EXPECT_GT(pool.StatsSnapshot().read_retries, 0u);
}

// --- Permanent faults ------------------------------------------------------

/// Fixture for dead-sector scenarios: a packed tree reopened through a
/// cold cache so every node read hits the (faulty) disk.
class PermanentFaultTest : public ::testing::Test {
 protected:
  static constexpr size_t kObjects = 2000;

  PermanentFaultTest() : base_(512), faulty_(&base_, FaultPlan{}) {
    storage::PageId meta;
    {
      BufferPool build_pool(&faulty_, 256, 1, FastRetryOptions(2));
      auto tree = BuildTree(&build_pool, kObjects, &points_);
      meta = tree->meta_page();
      // build_pool flushes everything on destruction.
    }
    pool_ = std::make_unique<BufferPool>(&faulty_, 256, 1,
                                         FastRetryOptions(2));
    auto reopened = RTree::Open(pool_.get(), meta);
    PICTDB_CHECK(reopened.ok());
    tree_ = std::make_unique<RTree>(std::move(reopened).value());
  }

  /// Page id of the root's first child (an internal subtree with a few
  /// hundred points under it).
  PageId FirstChildOfRoot() {
    PICTDB_CHECK(tree_->Height() >= 2);
    rtree::SoaNode root;
    PICTDB_CHECK_OK(tree_->ReadNodePageSoa(tree_->root(), &root));
    return root.ChildAt(0);
  }

  InMemoryDiskManager base_;
  FaultInjectionDiskManager faulty_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<RTree> tree_;
  std::vector<Point> points_;
  const Rect everything_ = Rect{{-1e9, -1e9}, {1e9, 1e9}};
};

TEST_F(PermanentFaultTest, PermanentErrorPropagatesAsDataLoss) {
  faulty_.AddPermanentReadFault(FirstChildOfRoot());
  auto hits = tree_->SearchIntersects(everything_);
  ASSERT_FALSE(hits.ok());
  EXPECT_TRUE(hits.status().IsDataLoss()) << hits.status().ToString();
  EXPECT_GT(faulty_.fault_stats().permanent_read_errors, 0u);
}

TEST_F(PermanentFaultTest, DegradedSearchReturnsPartialFlaggedResults) {
  const PageId bad = FirstChildOfRoot();
  faulty_.AddPermanentReadFault(bad);

  storage::PageQuarantine quarantine;
  SearchOptions options;
  options.degraded_ok = true;
  options.quarantine = &quarantine;
  rtree::SearchStats stats;
  auto hits = tree_->SearchIntersects(everything_, &stats, options);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();

  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.skipped_subtrees, 1u);
  EXPECT_TRUE(quarantine.Contains(bad));

  // Partial, and a strict subset of the oracle: no wrong answers.
  const std::set<PageId> oracle = OracleRids(points_, everything_);
  const std::set<PageId> got = HitRids(*hits);
  EXPECT_LT(got.size(), oracle.size());
  EXPECT_GT(got.size(), 0u);
  for (const PageId rid : got) EXPECT_TRUE(oracle.count(rid) > 0);
}

TEST_F(PermanentFaultTest, DegradedCursorSkipsBadSubtrees) {
  const PageId bad = FirstChildOfRoot();
  faulty_.AddPermanentReadFault(bad);

  SearchOptions options;
  options.degraded_ok = true;
  rtree::SearchCursor cursor =
      rtree::SearchCursor::Intersects(tree_.get(), everything_, options);
  size_t streamed = 0;
  for (;;) {
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    ++streamed;
  }
  EXPECT_TRUE(cursor.stats().degraded);
  EXPECT_GE(cursor.stats().skipped_subtrees, 1u);
  EXPECT_LT(streamed, points_.size());
  EXPECT_GT(streamed, 0u);
}

TEST_F(PermanentFaultTest, DegradedKnnSkipsBadSubtrees) {
  faulty_.AddPermanentReadFault(FirstChildOfRoot());

  // Without degradation the full-tree scan hits the dead page.
  rtree::SearchStats stats;
  SearchOptions options;
  options.degraded_ok = true;
  auto neighbors = rtree::SearchNearest(*tree_, Point{500, 500},
                                        points_.size(), &stats, options);
  ASSERT_TRUE(neighbors.ok()) << neighbors.status().ToString();
  EXPECT_TRUE(stats.degraded);
  EXPECT_LT(neighbors->size(), points_.size());
  EXPECT_GT(neighbors->size(), 0u);
}

TEST_F(PermanentFaultTest, ScrubAndRepackRestoresPreCorruptionOracle) {
  const PageId bad = FirstChildOfRoot();
  faulty_.AddPermanentReadFault(bad);

  // A few degraded windows first, to populate the quarantine the way a
  // live service would.
  storage::PageQuarantine quarantine;
  SearchOptions options;
  options.degraded_ok = true;
  options.quarantine = &quarantine;
  auto partial = tree_->SearchIntersects(everything_, nullptr, options);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(quarantine.Contains(bad));

  // Recover from base data (the authoritative entry list, as re-derived
  // from the heap file in a real deployment).
  std::vector<storage::Rid> rids;
  for (size_t i = 0; i < points_.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<PageId>(i), 0});
  }
  const std::vector<rtree::Entry> base_entries =
      pack::MakeLeafEntries(points_, rids);
  auto report = pack::ScrubAndRepack(tree_.get(), &quarantine,
                                     &base_entries);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->rebuilt_from_base);
  EXPECT_GE(report->pages_quarantined, 1u);
  EXPECT_GT(report->pages_freed, 0u);

  // The rebuilt tree answers the full oracle with no degradation, and
  // never touches the quarantined page again.
  ASSERT_TRUE(TreeIsValid(*tree_));
  rtree::SearchStats stats;
  auto hits = tree_->SearchIntersects(everything_, &stats);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(HitRids(*hits), OracleRids(points_, everything_));

  // Spot windows must also match exactly.
  Random qrng(11);
  for (int i = 0; i < 50; ++i) {
    const Rect w = Rect::FromCenterHalfExtent(qrng.UniformDouble(0, 1000),
                                              25,
                                              qrng.UniformDouble(0, 1000),
                                              25);
    auto wh = tree_->SearchIntersects(w);
    ASSERT_TRUE(wh.ok());
    EXPECT_EQ(HitRids(*wh), OracleRids(points_, w));
  }
}

TEST_F(PermanentFaultTest, ScrubAndRepackFromSalvageKeepsReadableEntries) {
  const PageId bad = FirstChildOfRoot();
  faulty_.AddPermanentReadFault(bad);

  storage::PageQuarantine quarantine;
  auto report = pack::ScrubAndRepack(tree_.get(), &quarantine,
                                     /*base_entries=*/nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->rebuilt_from_base);
  EXPECT_LT(report->entries_recovered, kObjects);  // the dead subtree
  EXPECT_GT(report->entries_recovered, 0u);

  ASSERT_TRUE(TreeIsValid(*tree_));
  auto hits = tree_->SearchIntersects(everything_);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), report->entries_recovered);
  // Everything salvaged is a true pre-corruption entry.
  const std::set<PageId> oracle = OracleRids(points_, everything_);
  for (const PageId rid : HitRids(*hits)) EXPECT_TRUE(oracle.count(rid));
}

// --- CRC-valid but structurally corrupt nodes ------------------------------
//
// The page checksum cannot catch a node written wrong and then stamped:
// the node decode and the traversal's level check must. Every search
// runs under a deadline, so a regression fails (or aborts) instead of
// hanging.

class StructuralCorruptionTest : public ::testing::Test {
 protected:
  StructuralCorruptionTest() : disk_(512), pool_(&disk_, 1024) {
    tree_ = BuildTree(&pool_, 2000, &points_);
    PICTDB_CHECK(tree_->Height() >= 3);
    rtree::SoaNode root;
    PICTDB_CHECK_OK(tree_->ReadNodePageSoa(tree_->root(), &root));
    child_ = root.ChildAt(0);  // an interior node
  }

  /// Rewrite the page of `id` through the pool (restamping its CRC).
  template <typename Edit>
  void RewritePage(PageId id, const Edit& edit) {
    auto guard = pool_.FetchPage(id);
    PICTDB_CHECK(guard.ok());
    edit(guard->mutable_data());
  }

  static SearchOptions WithDeadline() {
    SearchOptions options;
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    return options;
  }

  /// Strict search fails with Corruption; degraded search returns a
  /// flagged, strict subset of the answer and quarantines `bad`.
  void ExpectCorruptionThenDegraded(PageId bad) {
    auto strict = tree_->SearchIntersects(everything_, nullptr,
                                          WithDeadline());
    ASSERT_FALSE(strict.ok());
    EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();

    storage::PageQuarantine quarantine;
    SearchOptions options = WithDeadline();
    options.degraded_ok = true;
    options.quarantine = &quarantine;
    rtree::SearchStats stats;
    auto partial = tree_->SearchIntersects(everything_, &stats, options);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.skipped_subtrees, 1u);
    EXPECT_TRUE(quarantine.Contains(bad));
    EXPECT_GT(partial->size(), 0u);
    EXPECT_LT(partial->size(), points_.size());
  }

  InMemoryDiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<RTree> tree_;
  std::vector<Point> points_;
  PageId child_ = storage::kInvalidPageId;
  const Rect everything_ = Rect{{-1e9, -1e9}, {1e9, 1e9}};
};

TEST_F(StructuralCorruptionTest, OverfullEntryCountIsCorruption) {
  RewritePage(child_, [](char* page) {
    const uint16_t count = 0xFFFF;  // far beyond NodePageCapacity
    std::memcpy(page + 2, &count, sizeof(count));
  });
  ExpectCorruptionThenDegraded(child_);

  rtree::SoaNode node;
  const Status read = tree_->ReadNodePageSoa(child_, &node);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();

  // The validator reports the page instead of aborting the process.
  const check::ValidationReport report = check::TreeValidator().Check(*tree_);
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [&](const check::Violation& v) {
                            return v.kind ==
                                       check::ViolationKind::kUnreadablePage &&
                                   v.page == child_;
                          }));
}

TEST_F(StructuralCorruptionTest, ChildPointerToAncestorIsCorruption) {
  // The root's first child now lists the root as its own first child:
  // without the level check every descent loops through the cycle.
  const PageId root = tree_->root();
  RewritePage(child_, [&](char* page) {
    auto node = rtree::ReadNode(page, pool_.page_size());
    PICTDB_CHECK(node.ok());
    node->entries.front().payload = rtree::Entry::PayloadFromChild(root);
    rtree::WriteNode(*node, page, pool_.page_size());
  });
  ExpectCorruptionThenDegraded(root);

  auto nodes = tree_->CountNodes();
  ASSERT_FALSE(nodes.ok());
  EXPECT_TRUE(nodes.status().IsCorruption());
}

// --- Deadlines and cancellation --------------------------------------------

TEST(FaultDeadlineTest, ExpiredDeadlineFailsSearchBeforeAnyWork) {
  InMemoryDiskManager disk(512);
  BufferPool pool(&disk, 64);
  std::vector<Point> points;
  auto tree = BuildTree(&pool, 500, &points);

  SearchOptions options;
  options.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  auto hits = tree->SearchIntersects(Rect{{0, 0}, {1000, 1000}}, nullptr,
                                     options);
  ASSERT_FALSE(hits.ok());
  EXPECT_TRUE(hits.status().IsDeadlineExceeded());
}

TEST(FaultDeadlineTest, DeadlineExpiresMidScanOnSlowDisk) {
  InMemoryDiskManager base(512);
  storage::PageId meta;
  std::vector<Point> points;
  {
    BufferPool build_pool(&base, 256);
    auto tree = BuildTree(&build_pool, 2000, &points);
    meta = tree->meta_page();
  }
  // 200us per cold page read: a full scan (~hundreds of pages) cannot
  // finish inside 3ms, but gets past the first few nodes.
  storage::LatencyDiskManager slow(&base,
                                   std::chrono::microseconds(200),
                                   std::chrono::microseconds(0));
  BufferPool pool(&slow, 256);
  auto tree = RTree::Open(&pool, meta);
  ASSERT_TRUE(tree.ok());

  SearchOptions options;
  options.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(3);
  rtree::SearchStats stats;
  auto hits = tree->SearchIntersects(Rect{{-1e9, -1e9}, {1e9, 1e9}},
                                     &stats, options);
  ASSERT_FALSE(hits.ok());
  EXPECT_TRUE(hits.status().IsDeadlineExceeded());
  EXPECT_GT(stats.nodes_visited, 0u);  // it really started
}

TEST(FaultDeadlineTest, CancelFlagStopsKnnAndJoin) {
  InMemoryDiskManager disk(512);
  BufferPool pool(&disk, 64);
  std::vector<Point> points;
  auto tree = BuildTree(&pool, 500, &points);

  std::atomic<bool> cancel{true};
  SearchOptions options;
  options.cancel = &cancel;

  auto nn = rtree::SearchNearest(*tree, Point{1, 2}, 5, nullptr, options);
  ASSERT_FALSE(nn.ok());
  EXPECT_TRUE(nn.status().IsDeadlineExceeded());

  const Status join = rtree::SpatialJoin(
      *tree, *tree, [](const rtree::LeafHit&, const rtree::LeafHit&) {},
      nullptr, options);
  EXPECT_TRUE(join.IsDeadlineExceeded());
}

// --- Service-level integration ---------------------------------------------

TEST(FaultServiceTest, QueryTimeoutSurfacesThroughTheService) {
  InMemoryDiskManager base(512);
  storage::PageId meta;
  std::vector<Point> points;
  {
    BufferPool build_pool(&base, 256);
    auto tree = BuildTree(&build_pool, 2000, &points);
    meta = tree->meta_page();
  }
  storage::LatencyDiskManager slow(&base,
                                   std::chrono::microseconds(200),
                                   std::chrono::microseconds(0));
  BufferPool pool(&slow, 256);
  auto tree = RTree::Open(&pool, meta);
  ASSERT_TRUE(tree.ok());

  service::QueryService svc(&*tree, nullptr);

  service::QueryOptions qopts;
  qopts.timeout = std::chrono::microseconds(3000);
  auto outcome = svc.RunSync(
      service::WindowQuery{Rect{{-1e9, -1e9}, {1e9, 1e9}}, false}, qopts);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());
  EXPECT_EQ(svc.Metrics().deadline_exceeded, 1u);

  // Without a timeout the same query completes.
  auto full = svc.RunSync(
      service::WindowQuery{Rect{{-1e9, -1e9}, {1e9, 1e9}}, false});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->hits.size(), points.size());
}

TEST(FaultServiceTest, CancelAllFailsInFlightQueries) {
  InMemoryDiskManager disk(512);
  BufferPool pool(&disk, 64);
  std::vector<Point> points;
  auto tree = BuildTree(&pool, 500, &points);

  service::QueryService svc(tree.get(), nullptr);
  svc.CancelAll();
  auto outcome =
      svc.RunSync(service::WindowQuery{Rect{{0, 0}, {1000, 1000}}, false});
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());

  svc.ClearCancel();
  auto ok = svc.RunSync(
      service::WindowQuery{Rect{{-1e9, -1e9}, {1e9, 1e9}}, false});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->hits.size(), points.size());
}

TEST(FaultServiceTest, DegradedQueriesQuarantineThroughTheService) {
  InMemoryDiskManager base(512);
  FaultInjectionDiskManager faulty(&base, FaultPlan{});
  storage::PageId meta;
  std::vector<Point> points;
  {
    BufferPool build_pool(&faulty, 256, 1, FastRetryOptions(2));
    auto tree = BuildTree(&build_pool, 2000, &points);
    meta = tree->meta_page();
  }
  BufferPool pool(&faulty, 256, 1, FastRetryOptions(2));
  auto tree = RTree::Open(&pool, meta);
  ASSERT_TRUE(tree.ok());
  rtree::SoaNode root;
  ASSERT_TRUE(tree->ReadNodePageSoa(tree->root(), &root).ok());
  const PageId bad = root.ChildAt(0);
  faulty.AddPermanentReadFault(bad);

  service::QueryService svc(&*tree, nullptr);
  service::QueryOptions qopts;
  qopts.degraded_ok = true;
  auto outcome = svc.RunSync(
      service::WindowQuery{Rect{{-1e9, -1e9}, {1e9, 1e9}}, false}, qopts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->degraded);
  EXPECT_GE(outcome->skipped_subtrees, 1u);
  EXPECT_LT(outcome->hits.size(), points.size());
  EXPECT_TRUE(svc.quarantine()->Contains(bad));
  EXPECT_EQ(svc.Metrics().degraded, 1u);

  // Without degraded_ok the same query fails loudly instead of lying.
  auto strict = svc.RunSync(
      service::WindowQuery{Rect{{-1e9, -1e9}, {1e9, 1e9}}, false});
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsDataLoss());
}

// --- Acceptance: mixed workload under 1% transient faults ------------------

TEST(FaultAcceptanceTest, MixedWorkloadUnderTransientFaultsHasZeroWrongAnswers) {
  InMemoryDiskManager base(512);
  // Compose the full decorator stack: faults over latency over memory.
  storage::LatencyDiskManager slow(&base, std::chrono::microseconds(1),
                                   std::chrono::microseconds(0));
  FaultPlan plan;
  plan.seed = 0xFau;
  plan.transient_read_error_rate = 0.01;
  plan.read_bit_flip_rate = 0.005;
  FaultInjectionDiskManager faulty(&slow, plan);
  BufferPool pool(&faulty, /*capacity=*/64, /*shards=*/4,
                  FastRetryOptions());

  std::vector<Point> points;
  auto tree = BuildTree(&pool, 5000, &points);

  service::QueryService svc(tree.get(), nullptr);

  Random qrng(13);
  size_t wrong = 0;
  std::vector<size_t> kind;   // 0 window, 1 point, 2 knn
  std::vector<Rect> windows;
  std::vector<Point> qpoints;
  std::vector<size_t> ks;
  constexpr int kQueries = 600;
  for (int i = 0; i < kQueries; ++i) {
    if (i % 3 == 0) {
      const Rect w = Rect::FromCenterHalfExtent(
          qrng.UniformDouble(0, 1000), 20, qrng.UniformDouble(0, 1000), 20);
      kind.push_back(0);
      windows.push_back(w);
      qpoints.push_back(Point{});
      ks.push_back(0);
    } else if (i % 3 == 1) {
      const Point p{qrng.UniformDouble(0, 1000), qrng.UniformDouble(0, 1000)};
      kind.push_back(1);
      windows.push_back(Rect{});
      qpoints.push_back(p);
      ks.push_back(0);
    } else {
      const Point p{qrng.UniformDouble(0, 1000), qrng.UniformDouble(0, 1000)};
      const size_t k = 1 + qrng.Uniform(10);
      kind.push_back(2);
      windows.push_back(Rect{});
      qpoints.push_back(p);
      ks.push_back(k);
    }
  }

  // Four caller threads run the queries at once.
  std::vector<StatusOr<service::QueryResult>> outcomes(
      kind.size(), Status::Internal("not run"));
  ParallelFor(4, kind.size(), [&](size_t i) {
    if (kind[i] == 0) {
      outcomes[i] = svc.RunSync(service::WindowQuery{windows[i], false});
    } else if (kind[i] == 1) {
      outcomes[i] = svc.RunSync(service::PointQuery{qpoints[i]});
    } else {
      outcomes[i] = svc.RunSync(service::KnnQuery{qpoints[i], ks[i]});
    }
  });

  for (size_t i = 0; i < outcomes.size(); ++i) {
    const StatusOr<service::QueryResult>& outcome = outcomes[i];
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_FALSE(outcome->degraded);
    if (kind[i] == 0) {
      if (HitRids(outcome->hits) != OracleRids(points, windows[i])) ++wrong;
    } else if (kind[i] == 1) {
      // Point containment over point objects: hit iff an identical point
      // exists. Compare counts.
      size_t expect = 0;
      for (const Point& p : points) {
        if (p.x == qpoints[i].x && p.y == qpoints[i].y) ++expect;
      }
      if (outcome->hits.size() != expect) ++wrong;
    } else {
      // Brute-force k-th smallest distance must match.
      std::vector<double> d;
      d.reserve(points.size());
      for (const Point& p : points) {
        const double dx = p.x - qpoints[i].x;
        const double dy = p.y - qpoints[i].y;
        d.push_back(dx * dx + dy * dy);
      }
      std::sort(d.begin(), d.end());
      if (outcome->neighbors.size() != ks[i]) {
        ++wrong;
      } else {
        for (size_t j = 0; j < ks[i]; ++j) {
          const double got = outcome->neighbors[j].distance;
          if (std::abs(got * got - d[j]) > 1e-6 * (1.0 + d[j])) {
            ++wrong;
            break;
          }
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
  // The faults really fired; the retry layer really absorbed them.
  EXPECT_GT(faulty.fault_stats().transient_read_errors, 0u);
  EXPECT_GT(pool.StatsSnapshot().read_retries, 0u);
  EXPECT_EQ(svc.Metrics().failed, 0u);
}

}  // namespace
}  // namespace pictdb
