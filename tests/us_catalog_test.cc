// Invariants of the packaged §2 example database (workload/us_catalog):
// every relation populated, every picture associated, every index valid,
// and the geometry classes match the paper's point/segment/region story.

#include <gtest/gtest.h>

#include "rel/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/us_catalog.h"
#include "workload/us_cities.h"

#include "tree_check.h"

namespace pictdb::workload {
namespace {

using testing_support::TreeIsValid;

class UsCatalogTest : public ::testing::Test {
 protected:
  UsCatalogTest() : disk_(1024), pool_(&disk_, 1 << 14), catalog_(&pool_) {
    PICTDB_CHECK_OK(BuildUsCatalog(&catalog_, 4));
  }

  storage::InMemoryDiskManager disk_;
  storage::BufferPool pool_;
  rel::Catalog catalog_;
};

TEST_F(UsCatalogTest, AllRelationsPresentAndPopulated) {
  const std::vector<std::string> expected = {"cities", "highways", "lakes",
                                             "states", "time-zones"};
  EXPECT_EQ(catalog_.RelationNames(), expected);
  for (const std::string& name : expected) {
    auto rel = catalog_.GetRelation(name);
    ASSERT_TRUE(rel.ok());
    auto count = (*rel)->Count();
    ASSERT_TRUE(count.ok());
    EXPECT_GT(*count, 0u) << name;
  }
}

TEST_F(UsCatalogTest, EverySpatialIndexIsValidAndComplete) {
  for (const std::string& name : catalog_.RelationNames()) {
    auto rel = catalog_.GetRelation(name);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*rel)->HasSpatialIndex("loc")) << name;
    auto index = (*rel)->SpatialIndex("loc");
    ASSERT_TRUE(index.ok());
    EXPECT_TRUE(TreeIsValid(**index)) << name;
    EXPECT_EQ((*index)->Size(), *(*rel)->Count()) << name;
  }
}

TEST_F(UsCatalogTest, PicturesCoverEveryRelation) {
  const std::pair<const char*, const char*> associations[] = {
      {"us-map", "cities"},       {"us-map", "highways"},
      {"state-map", "states"},    {"time-zone-map", "time-zones"},
      {"lake-map", "lakes"},
  };
  for (const auto& [picture, relation] : associations) {
    auto column = catalog_.AssociationColumn(picture, relation);
    ASSERT_TRUE(column.ok()) << picture << "/" << relation;
    EXPECT_EQ(*column, "loc");
  }
  // Every picture frame is the continental US.
  for (const rel::Picture* pic : catalog_.Pictures()) {
    EXPECT_EQ(pic->frame, ContinentalUsFrame()) << pic->name;
  }
}

TEST_F(UsCatalogTest, GeometryClassesMatchThePaper) {
  // cities are points, highways segments, the rest regions/rects.
  const std::pair<const char*, geom::GeometryType> expectations[] = {
      {"cities", geom::GeometryType::kPoint},
      {"highways", geom::GeometryType::kSegment},
      {"states", geom::GeometryType::kRegion},
      {"time-zones", geom::GeometryType::kRect},
      {"lakes", geom::GeometryType::kRect},
  };
  for (const auto& [name, type] : expectations) {
    auto rel = catalog_.GetRelation(name);
    ASSERT_TRUE(rel.ok());
    auto rid = (*rel)->FirstRid();
    ASSERT_TRUE(rid.ok());
    const size_t loc = *(*rel)->schema().IndexOf("loc");
    while (rid->IsValid()) {
      auto tuple = (*rel)->Get(*rid);
      ASSERT_TRUE(tuple.ok());
      EXPECT_EQ(tuple->at(loc).as_geometry().type(), type) << name;
      rid = (*rel)->NextRid(*rid);
      ASSERT_TRUE(rid.ok());
    }
  }
}

TEST_F(UsCatalogTest, AllGeometriesInsideTheFrame) {
  const geom::Rect frame = ContinentalUsFrame();
  for (const std::string& name : catalog_.RelationNames()) {
    auto rel = catalog_.GetRelation(name);
    ASSERT_TRUE(rel.ok());
    const size_t loc = *(*rel)->schema().IndexOf("loc");
    auto rid = (*rel)->FirstRid();
    ASSERT_TRUE(rid.ok());
    while (rid->IsValid()) {
      auto tuple = (*rel)->Get(*rid);
      ASSERT_TRUE(tuple.ok());
      EXPECT_TRUE(frame.Contains(tuple->at(loc).as_geometry().Mbr()))
          << name << " " << tuple->ToString();
      rid = (*rel)->NextRid(*rid);
      ASSERT_TRUE(rid.ok());
    }
  }
}

TEST_F(UsCatalogTest, HighwaySectionsChainThroughSharedCities) {
  // Consecutive sections of the same highway share an endpoint.
  auto highways = catalog_.GetRelation("highways");
  ASSERT_TRUE(highways.ok());
  std::map<std::string, std::map<int64_t, geom::Segment>> routes;
  auto rid = (*highways)->FirstRid();
  ASSERT_TRUE(rid.ok());
  while (rid->IsValid()) {
    auto tuple = (*highways)->Get(*rid);
    ASSERT_TRUE(tuple.ok());
    routes[tuple->at(0).as_string()][tuple->at(1).as_int()] =
        tuple->at(2).as_geometry().segment();
    rid = (*highways)->NextRid(*rid);
    ASSERT_TRUE(rid.ok());
  }
  EXPECT_GE(routes.size(), 5u);
  for (const auto& [name, sections] : routes) {
    int64_t prev_section = -1;
    geom::Segment prev{};
    for (const auto& [section, segment] : sections) {
      if (prev_section >= 0 && section == prev_section + 1) {
        EXPECT_EQ(prev.b, segment.a)
            << name << " section " << section << " does not chain";
      }
      prev_section = section;
      prev = segment;
    }
  }
}

TEST_F(UsCatalogTest, BranchingFactorIsHonored) {
  storage::InMemoryDiskManager disk(1024);
  storage::BufferPool pool(&disk, 1 << 14);
  rel::Catalog catalog(&pool);
  PICTDB_CHECK_OK(BuildUsCatalog(&catalog, 6));
  auto cities = catalog.GetRelation("cities");
  ASSERT_TRUE(cities.ok());
  auto index = (*cities)->SpatialIndex("loc");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->options().max_entries, 6u);
}

}  // namespace
}  // namespace pictdb::workload
