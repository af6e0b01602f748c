// Cross-module integration tests: file-backed persistence across
// process-style reopen (heap + B+-tree + R-tree sharing one file), mixed
// index workloads, and a miniature end-to-end pictorial database flow on
// top of a FileDiskManager.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "btree/btree.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "workload/generators.h"

#include "tree_check.h"

namespace pictdb {
namespace {

using btree::BTree;
using btree::KeyEncoder;
using geom::Point;
using geom::Rect;
using rtree::RTree;
using storage::BufferPool;
using storage::FileDiskManager;
using storage::HeapFile;
using storage::PageId;
using storage::Rid;
using testing_support::TreeIsValid;

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/pictdb_integration_" + tag +
         ".db";
}

TEST(IntegrationTest, AllStructuresShareOneFileAndSurviveReopen) {
  const std::string path = TempPath("shared");
  PageId heap_first = 0, btree_meta = 0, rtree_meta = 0;
  std::vector<Rid> record_rids;
  std::vector<Point> points;

  // --- Session 1: create everything -------------------------------------
  {
    auto disk = FileDiskManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(disk.ok());
    BufferPool pool(disk->get(), 64);

    auto heap = HeapFile::Create(&pool);
    ASSERT_TRUE(heap.ok());
    heap_first = heap->first_page();

    auto index = BTree::Create(&pool);
    ASSERT_TRUE(index.ok());
    btree_meta = index->meta_page();

    rtree::RTreeOptions opts;
    opts.max_entries = 4;
    auto tree = RTree::Create(&pool, opts);
    ASSERT_TRUE(tree.ok());
    rtree_meta = tree->meta_page();

    Random rng(77);
    points = workload::UniformPoints(&rng, 60, workload::PaperFrame());
    for (size_t i = 0; i < points.size(); ++i) {
      const std::string payload = "object-" + std::to_string(i);
      auto rid = heap->Insert(Slice(payload));
      ASSERT_TRUE(rid.ok());
      record_rids.push_back(*rid);
      ASSERT_TRUE(
          index
              ->Insert(KeyEncoder::FromInt64(static_cast<int64_t>(i), *rid),
                       *rid)
              .ok());
      ASSERT_TRUE(tree->Insert(Rect::FromPoint(points[i]), *rid).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  // --- Session 2: reopen and verify -------------------------------------
  {
    auto disk = FileDiskManager::Open(path, 512, /*truncate=*/false);
    ASSERT_TRUE(disk.ok());
    BufferPool pool(disk->get(), 64);

    HeapFile heap = HeapFile::Open(&pool, heap_first);
    BTree index = BTree::Open(&pool, btree_meta);
    auto tree = RTree::Open(&pool, rtree_meta);
    ASSERT_TRUE(tree.ok());

    EXPECT_EQ(*heap.Count(), points.size());
    EXPECT_EQ(*index.Count(), points.size());
    EXPECT_EQ(tree->Size(), points.size());
    ASSERT_TRUE(index.Validate().ok());
    ASSERT_TRUE(TreeIsValid(*tree));

    // Every object reachable three ways: by rid, by key, by location.
    for (size_t i = 0; i < points.size(); ++i) {
      auto rec = heap.Get(record_rids[i]);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(*rec, "object-" + std::to_string(i));

      auto by_key = index.Get(
          KeyEncoder::FromInt64(static_cast<int64_t>(i), record_rids[i]));
      ASSERT_TRUE(by_key.ok());
      EXPECT_TRUE(*by_key == record_rids[i]);

      auto hits = tree->SearchPoint(points[i]);
      ASSERT_TRUE(hits.ok());
      bool found = false;
      for (const auto& h : *hits) {
        if (h.rid == record_rids[i]) found = true;
      }
      EXPECT_TRUE(found) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, PackedTreePersistsAcrossReopen) {
  const std::string path = TempPath("packed");
  PageId meta = 0;
  Random rng(88);
  const auto pts = workload::UniformPoints(&rng, 200,
                                           workload::PaperFrame());
  {
    auto disk = FileDiskManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(disk.ok());
    BufferPool pool(disk->get(), 256);
    rtree::RTreeOptions opts;
    opts.max_entries = 8;
    auto tree = RTree::Create(&pool, opts);
    ASSERT_TRUE(tree.ok());
    meta = tree->meta_page();
    std::vector<Rid> rids;
    for (size_t i = 0; i < pts.size(); ++i) {
      rids.push_back(Rid{static_cast<PageId>(i), 0});
    }
    ASSERT_TRUE(pack::Pack(
                    &*tree, pack::MakeLeafEntries(pts, rids))
                    .ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  {
    auto disk = FileDiskManager::Open(path, 512, /*truncate=*/false);
    ASSERT_TRUE(disk.ok());
    BufferPool pool(disk->get(), 256);
    auto tree = RTree::Open(&pool, meta);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->Size(), pts.size());
    EXPECT_EQ(tree->options().max_entries, 8u);
    ASSERT_TRUE(TreeIsValid(*tree));
    // Updates on the reopened packed tree still work.
    ASSERT_TRUE(tree->Insert(Rect(1, 1, 2, 2), Rid{9999, 0}).ok());
    ASSERT_TRUE(tree->Delete(Rect(1, 1, 2, 2), Rid{9999, 0}).ok());
    ASSERT_TRUE(TreeIsValid(*tree));
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, TinyBufferPoolStillCorrect) {
  // 8 frames for a tree of hundreds of nodes: every operation churns the
  // pool; results must be identical to the in-memory reference.
  storage::InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 8);
  rtree::RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  auto tree = RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());

  Random rng(99);
  const auto pts = workload::UniformPoints(&rng, 250,
                                           workload::PaperFrame());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree->Insert(Rect::FromPoint(pts[i]),
                             Rid{static_cast<PageId>(i), 0})
                    .ok());
  }
  ASSERT_TRUE(TreeIsValid(*tree));
  EXPECT_GT(pool.stats().evictions, 0u);

  const Rect window(250, 250, 750, 750);
  auto hits = tree->SearchIntersects(window);
  ASSERT_TRUE(hits.ok());
  size_t expected = 0;
  for (const Point& p : pts) {
    if (window.Contains(p)) ++expected;
  }
  EXPECT_EQ(hits->size(), expected);
}

/// The heap record for `key`: "k<key>", appended rather than built with
/// operator+ (GCC 12 at -O3 reports a spurious -Werror=restrict in
/// `"k" + std::to_string(key)`).
std::string KeyRecord(int64_t key) {
  std::string record = "k";
  record += std::to_string(key);
  return record;
}

TEST(IntegrationTest, HeapAndIndexStayConsistentUnderChurn) {
  storage::InMemoryDiskManager disk(512);
  BufferPool pool(&disk, 128);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  auto index = BTree::Create(&pool);
  ASSERT_TRUE(index.ok());

  Random rng(111);
  std::vector<std::pair<int64_t, Rid>> live;
  int64_t next_key = 0;
  for (int step = 0; step < 1000; ++step) {
    if (rng.Bernoulli(0.6) || live.empty()) {
      const int64_t key = next_key++;
      auto rid = heap->Insert(Slice(KeyRecord(key)));
      ASSERT_TRUE(rid.ok());
      ASSERT_TRUE(index->Insert(KeyEncoder::FromInt64(key, *rid), *rid).ok());
      live.emplace_back(key, *rid);
    } else {
      const size_t pick = rng.Uniform(live.size());
      const auto [key, rid] = live[pick];
      ASSERT_TRUE(index->Delete(KeyEncoder::FromInt64(key, rid)).ok());
      ASSERT_TRUE(heap->Delete(rid).ok());
      live.erase(live.begin() + pick);
    }
  }
  ASSERT_TRUE(index->Validate().ok());
  EXPECT_EQ(*index->Count(), live.size());
  EXPECT_EQ(*heap->Count(), live.size());
  for (const auto& [key, rid] : live) {
    auto found = index->Get(KeyEncoder::FromInt64(key, rid));
    ASSERT_TRUE(found.ok());
    auto rec = heap->Get(*found);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, KeyRecord(key));
  }
}

}  // namespace
}  // namespace pictdb
