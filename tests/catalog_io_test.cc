// Catalog persistence: save a full pictorial database (relations,
// indexes, pictures, named locations) into the page file and reopen it
// in a fresh Catalog — including a real file on disk across "restarts".

#include <gtest/gtest.h>

#include <cstdio>

#include "psql/executor.h"
#include "rel/catalog.h"
#include "rel/catalog_io.h"
#include "storage/blob.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "workload/us_catalog.h"

#include "tree_check.h"

namespace pictdb::rel {
namespace {

using storage::BufferPool;
using storage::FileDiskManager;
using storage::InMemoryDiskManager;
using storage::PageId;
using testing_support::TreeIsValid;

// --- Blob substrate -----------------------------------------------------------

TEST(BlobTest, RoundTripSmall) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 64);
  auto first = storage::WriteBlob(&pool, Slice("hello catalog"));
  ASSERT_TRUE(first.ok());
  auto back = storage::ReadBlob(&pool, *first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello catalog");
}

TEST(BlobTest, RoundTripMultiPage) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 64);
  std::string big;
  for (int i = 0; i < 5000; ++i) big.push_back(static_cast<char>(i % 251));
  auto first = storage::WriteBlob(&pool, Slice(big));
  ASSERT_TRUE(first.ok());
  auto back = storage::ReadBlob(&pool, *first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, big);
  EXPECT_GT(disk.page_count(), 20u);  // really chained across pages
}

TEST(BlobTest, EmptyBlob) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 64);
  auto first = storage::WriteBlob(&pool, Slice(""));
  ASSERT_TRUE(first.ok());
  auto back = storage::ReadBlob(&pool, *first);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(BlobTest, FreeReturnsPages) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 64);
  std::string big(3000, 'x');
  auto first = storage::WriteBlob(&pool, Slice(big));
  ASSERT_TRUE(first.ok());
  const PageId count_before = disk.page_count();
  ASSERT_TRUE(storage::FreeBlob(&pool, *first).ok());
  // Writing again reuses the freed chain.
  auto second = storage::WriteBlob(&pool, Slice(big));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(disk.page_count(), count_before);
}

// --- Catalog save/load -----------------------------------------------------------

TEST(CatalogIoTest, RoundTripInMemory) {
  InMemoryDiskManager disk(1024);
  BufferPool pool(&disk, 1 << 14);
  Catalog original(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&original, 4));
  ASSERT_TRUE(original
                  .DefineLocation("eastern-us",
                                  geom::Geometry(geom::Rect(-82, 35, -66, 45)))
                  .ok());

  auto root = SaveCatalog(original, &pool);
  ASSERT_TRUE(root.ok());

  Catalog reloaded(&pool);
  ASSERT_TRUE(LoadCatalog(&pool, *root, &reloaded).ok());

  // Same relations with same schemas and contents.
  EXPECT_EQ(reloaded.RelationNames(), original.RelationNames());
  for (const std::string& name : original.RelationNames()) {
    auto orig_rel = original.GetRelation(name);
    auto new_rel = reloaded.GetRelation(name);
    ASSERT_TRUE(orig_rel.ok() && new_rel.ok());
    EXPECT_EQ((*new_rel)->schema().ToString(name),
              (*orig_rel)->schema().ToString(name));
    EXPECT_EQ(*(*new_rel)->Count(), *(*orig_rel)->Count());
  }
  // Indexes survive.
  auto cities = reloaded.GetRelation("cities");
  ASSERT_TRUE(cities.ok());
  EXPECT_TRUE((*cities)->HasBTreeIndex("population"));
  EXPECT_TRUE((*cities)->HasSpatialIndex("loc"));
  auto index = (*cities)->SpatialIndex("loc");
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(TreeIsValid(**index));
  // Pictures and locations survive.
  EXPECT_TRUE(reloaded.AssociationColumn("us-map", "cities").ok());
  EXPECT_TRUE(reloaded.GetLocation("eastern-us").ok());
}

TEST(CatalogIoTest, QueriesIdenticalAfterReload) {
  InMemoryDiskManager disk(1024);
  BufferPool pool(&disk, 1 << 14);
  Catalog original(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&original, 4));
  auto root = SaveCatalog(original, &pool);
  ASSERT_TRUE(root.ok());
  Catalog reloaded(&pool);
  ASSERT_TRUE(LoadCatalog(&pool, *root, &reloaded).ok());

  const char* queries[] = {
      "select city from cities on us-map at loc covered-by "
      "{-74 +- 4, 41 +- 3}",
      "select city,zone from cities,time-zones on us-map,time-zone-map "
      "at cities.loc covered-by time-zones.loc",
      "select count(*) from cities where population > 1000000",
  };
  for (const char* q : queries) {
    psql::Executor exec_a(&original), exec_b(&reloaded);
    auto a = exec_a.Query(q);
    auto b = exec_b.Query(q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a->rows.size(), b->rows.size()) << q;
  }
}

TEST(CatalogIoTest, SurvivesProcessRestartOnDisk) {
  const std::string path =
      std::string(::testing::TempDir()) + "/pictdb_catalog_restart.db";
  PageId root = 0;
  size_t expected_rows = 0;
  // Session 1: build + save.
  {
    auto dm = FileDiskManager::Open(path, 1024, /*truncate=*/true);
    ASSERT_TRUE(dm.ok());
    BufferPool pool(dm->get(), 1 << 14);
    Catalog catalog(&pool);
    PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog, 4));
    psql::Executor exec(&catalog);
    auto rs = exec.Query("select city from cities on us-map "
                         "at loc covered-by {-74 +- 8, 40 +- 5}");
    ASSERT_TRUE(rs.ok());
    expected_rows = rs->rows.size();
    ASSERT_GT(expected_rows, 0u);
    auto saved = SaveCatalog(catalog, &pool);
    ASSERT_TRUE(saved.ok());
    root = *saved;
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  // Session 2: reopen + query.
  {
    auto dm = FileDiskManager::Open(path, 1024, /*truncate=*/false);
    ASSERT_TRUE(dm.ok());
    BufferPool pool(dm->get(), 1 << 14);
    Catalog catalog(&pool);
    ASSERT_TRUE(LoadCatalog(&pool, root, &catalog).ok());
    psql::Executor exec(&catalog);
    auto rs = exec.Query("select city from cities on us-map "
                         "at loc covered-by {-74 +- 8, 40 +- 5}");
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows.size(), expected_rows);
    EXPECT_TRUE(rs->stats.used_spatial_index);
    // The reopened database is still writable.
    auto cities = catalog.GetRelation("cities");
    ASSERT_TRUE(cities.ok());
    auto rid = (*cities)->Insert(Tuple(
        {Value(std::string("Testville")), Value(std::string("TS")),
         Value(int64_t{123}),
         Value(geom::Geometry(geom::Point{-74.0, 40.9}))}));
    ASSERT_TRUE(rid.ok());
    auto again = exec.Query("select city from cities on us-map "
                            "at loc covered-by {-74 +- 8, 40 +- 5}");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->rows.size(), expected_rows + 1);
  }
  std::remove(path.c_str());
}

TEST(CatalogIoTest, SavedImageBytesArePinned) {
  // The saved image of the US catalog plus one named location, pinned by
  // size and CRC-32: catalog version 1's layout must not change.
  InMemoryDiskManager disk(1024);
  BufferPool pool(&disk, 1 << 14);
  Catalog catalog(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog, 4));
  ASSERT_TRUE(catalog
                  .DefineLocation("eastern-us",
                                  geom::Geometry(geom::Rect(-82, 35, -66, 45)))
                  .ok());
  auto root = SaveCatalog(catalog, &pool);
  ASSERT_TRUE(root.ok());
  auto image = storage::ReadBlob(&pool, *root);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->size(), 764u);
  EXPECT_EQ(storage::Crc32(image->data(), image->size()), 0x319e9a3du);
}

TEST(CatalogIoTest, LoadRejectsGarbage) {
  InMemoryDiskManager disk(256);
  BufferPool pool(&disk, 64);
  auto blob = storage::WriteBlob(&pool, Slice("this is not a catalog"));
  ASSERT_TRUE(blob.ok());
  Catalog catalog(&pool);
  EXPECT_TRUE(LoadCatalog(&pool, *blob, &catalog).IsCorruption());
}

TEST(CatalogIoTest, LoadRejectsTruncatedImage) {
  InMemoryDiskManager disk(1024);
  BufferPool pool(&disk, 1 << 14);
  Catalog original(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&original, 4));
  auto root = SaveCatalog(original, &pool);
  ASSERT_TRUE(root.ok());
  // Truncate the image blob: chop the first page's chunk length.
  {
    auto page = pool.FetchPage(*root);
    ASSERT_TRUE(page.ok());
    const uint32_t short_len = 10;
    const storage::PageId no_next = storage::kInvalidPageId;
    std::memcpy(page->mutable_data(), &no_next, 4);
    std::memcpy(page->mutable_data() + 4, &short_len, 4);
  }
  Catalog reloaded(&pool);
  EXPECT_TRUE(LoadCatalog(&pool, *root, &reloaded).IsCorruption());
}

}  // namespace
}  // namespace pictdb::rel
