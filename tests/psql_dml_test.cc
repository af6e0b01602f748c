// §2.3 database updates through PSQL: insert/delete statements with full
// index maintenance (B+-tree and packed R-tree alike).

#include <gtest/gtest.h>

#include "psql/executor.h"
#include "psql/parser.h"
#include "rel/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/us_catalog.h"
#include "workload/us_cities.h"

#include "tree_check.h"

namespace pictdb::psql {
namespace {

using testing_support::TreeIsValid;

class PsqlDmlTest : public ::testing::Test {
 protected:
  PsqlDmlTest() : disk_(1024), pool_(&disk_, 1 << 14), catalog_(&pool_) {
    PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog_, 4));
  }

  ResultSet MustRun(const std::string& text) {
    Executor exec(&catalog_);
    auto result = exec.Run(text);
    PICTDB_CHECK(result.ok()) << text << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  int64_t Count(const std::string& rel) {
    return MustRun("select count(*) from " + rel).rows[0][0].as_int();
  }

  storage::InMemoryDiskManager disk_;
  storage::BufferPool pool_;
  rel::Catalog catalog_;
};

// --- Parser level --------------------------------------------------------------

TEST(DmlParserTest, ParsesInsert) {
  auto stmt = ParseStatement(
      "insert into cities values ('Springfield', 'IL', 116250, "
      "'POINT(-89.65 39.78)')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_NE(stmt->insert, nullptr);
  EXPECT_EQ(stmt->insert->relation, "cities");
  EXPECT_EQ(stmt->insert->values.size(), 4u);
}

TEST(DmlParserTest, ParsesDeleteVariants) {
  auto plain = ParseStatement("delete from cities where population < 10");
  ASSERT_TRUE(plain.ok());
  ASSERT_NE(plain->del, nullptr);
  EXPECT_FALSE(plain->del->at.has_value());

  auto spatial = ParseStatement(
      "delete from cities on us-map at loc covered-by {0 +- 1, 0 +- 1}");
  ASSERT_TRUE(spatial.ok()) << spatial.status().ToString();
  ASSERT_NE(spatial->del, nullptr);
  EXPECT_TRUE(spatial->del->at.has_value());
  EXPECT_EQ(spatial->del->on, std::vector<std::string>{"us-map"});
}

TEST(DmlParserTest, SelectStillParsesThroughStatementEntry) {
  auto stmt = ParseStatement("select city from cities");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(stmt->select, nullptr);
}

TEST(DmlParserTest, RejectsMalformedDml) {
  EXPECT_FALSE(ParseStatement("insert cities values (1)").ok());
  EXPECT_FALSE(ParseStatement("insert into cities (1, 2)").ok());
  EXPECT_FALSE(ParseStatement("insert into cities values (city)").ok());
  EXPECT_FALSE(ParseStatement("delete cities").ok());
  EXPECT_FALSE(
      ParseStatement("insert into cities values (1, 2) extra").ok());
}

// --- Executor level ----------------------------------------------------------------

TEST_F(PsqlDmlTest, InsertAddsRowAndIndexes) {
  const int64_t before = Count("cities");
  const ResultSet rs = MustRun(
      "insert into cities values ('Springfield', 'IL', 116250, "
      "'POINT(-89.65 39.78)')");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(Count("cities"), before + 1);

  // Reachable through the B+-tree...
  const ResultSet by_pop = MustRun(
      "select city from cities where population = 116250");
  ASSERT_EQ(by_pop.rows.size(), 1u);
  EXPECT_EQ(by_pop.rows[0][0].ToString(), "Springfield");
  EXPECT_TRUE(by_pop.stats.used_btree_index);

  // ...and through the packed R-tree.
  const ResultSet by_loc = MustRun(
      "select city from cities on us-map "
      "at loc covered-by {-89.65 +- 0.1, 39.78 +- 0.1}");
  ASSERT_EQ(by_loc.rows.size(), 1u);
  EXPECT_EQ(by_loc.rows[0][0].ToString(), "Springfield");
  EXPECT_TRUE(by_loc.stats.used_spatial_index);
}

TEST_F(PsqlDmlTest, InsertCoercesTypes) {
  // Int literal into double column; window literal into geometry.
  const ResultSet rs = MustRun(
      "insert into lakes values ('Square Lake', 42, 1, "
      "{-100 +- 1, 40 +- 1})");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  const ResultSet found = MustRun(
      "select lake, area(loc) from lakes where lake = 'Square Lake'");
  ASSERT_EQ(found.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(found.rows[0][1].as_double(), 4.0);
}

TEST_F(PsqlDmlTest, InsertNulls) {
  const ResultSet rs = MustRun(
      "insert into cities values ('Nowhere', null, null, null)");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  const ResultSet found = MustRun(
      "select city, population from cities where city = 'Nowhere'");
  ASSERT_EQ(found.rows.size(), 1u);
  EXPECT_TRUE(found.rows[0][1].is_null());
}

TEST_F(PsqlDmlTest, InsertErrors) {
  Executor exec(&catalog_);
  EXPECT_FALSE(exec.Run("insert into nowhere values (1)").ok());
  // Wrong arity.
  EXPECT_FALSE(exec.Run("insert into cities values ('X', 'Y')").ok());
  // Type mismatch: string into int column.
  EXPECT_FALSE(
      exec.Run("insert into cities values ('X', 'Y', 'lots', null)").ok());
  // Bad WKT into geometry column.
  EXPECT_FALSE(
      exec.Run("insert into cities values ('X', 'Y', 5, 'CIRCLE(1)')").ok());
  // Fractional into int column.
  EXPECT_FALSE(
      exec.Run("insert into cities values ('X', 'Y', 5.5, null)").ok());
}

TEST_F(PsqlDmlTest, DeleteByAlphanumericPredicate) {
  const int64_t before = Count("cities");
  int64_t small = 0;
  for (const auto& c : workload::ContinentalUsCities()) {
    if (c.population < 100000) ++small;
  }
  const ResultSet rs =
      MustRun("delete from cities where population < 100000");
  EXPECT_EQ(rs.rows[0][0].as_int(), small);
  EXPECT_EQ(Count("cities"), before - small);
  // The survivors' indexes are intact.
  auto cities = catalog_.GetRelation("cities");
  ASSERT_TRUE(cities.ok());
  auto index = (*cities)->SpatialIndex("loc");
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(TreeIsValid(**index));
  EXPECT_EQ((*index)->Size(), static_cast<uint64_t>(before - small));
}

TEST_F(PsqlDmlTest, DeleteBySpatialQualification) {
  // Remove everything in the north-east window.
  const geom::Rect window =
      geom::Rect::FromCenterHalfExtent(-74, 4, 41, 3);
  int64_t in_window = 0;
  for (const auto& c : workload::ContinentalUsCities()) {
    if (window.Contains(c.loc())) ++in_window;
  }
  const ResultSet rs = MustRun(
      "delete from cities on us-map at loc covered-by {-74 +- 4, 41 +- 3}");
  EXPECT_EQ(rs.rows[0][0].as_int(), in_window);

  const ResultSet after = MustRun(
      "select count(*) from cities on us-map "
      "at loc covered-by {-74 +- 4, 41 +- 3}");
  EXPECT_EQ(after.rows[0][0].as_int(), 0);
}

TEST_F(PsqlDmlTest, DeleteCombinedQualification) {
  // Only the big north-eastern cities go.
  const ResultSet rs = MustRun(
      "delete from cities on us-map at loc covered-by {-74 +- 4, 41 +- 3} "
      "where population > 1000000");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);  // New York + Philadelphia
  const ResultSet boston = MustRun(
      "select city from cities where city = 'Boston'");
  EXPECT_EQ(boston.rows.size(), 1u);  // in the window but only 692k
  const ResultSet nyc =
      MustRun("select city from cities where city = 'New York'");
  EXPECT_TRUE(nyc.rows.empty());
}

TEST_F(PsqlDmlTest, DeleteMatchingNothing) {
  const ResultSet rs =
      MustRun("delete from cities where population > 999999999");
  EXPECT_EQ(rs.rows[0][0].as_int(), 0);
}

TEST(DmlParserTest, ParsesUpdate) {
  auto stmt = ParseStatement(
      "update cities set population = 99, state = 'XX' "
      "where city = 'Boston'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_NE(stmt->update, nullptr);
  EXPECT_EQ(stmt->update->relation, "cities");
  EXPECT_EQ(stmt->update->assignments.size(), 2u);
  EXPECT_EQ(stmt->update->assignments[0].first, "population");
  EXPECT_FALSE(ParseStatement("update cities population = 5").ok());
  EXPECT_FALSE(ParseStatement("update cities set population 5").ok());
}

TEST_F(PsqlDmlTest, UpdateAlphanumericColumn) {
  const ResultSet rs = MustRun(
      "update cities set population = 700000 where city = 'Boston'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  const ResultSet after =
      MustRun("select population from cities where city = 'Boston'");
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0].as_int(), 700000);
  // The B+-tree follows: searchable under the new value, gone from the old.
  const ResultSet by_new =
      MustRun("select city from cities where population = 700000");
  EXPECT_EQ(by_new.rows.size(), 1u);
  const ResultSet by_old =
      MustRun("select city from cities where population = 692600");
  EXPECT_TRUE(by_old.rows.empty());
}

TEST_F(PsqlDmlTest, UpdateGeometryMovesTheObjectInTheRTree) {
  // Move Boston to the middle of Kansas.
  const ResultSet rs = MustRun(
      "update cities set loc = 'POINT(-98.0 38.5)' "
      "where city = 'Boston'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  // Old location no longer finds it; new location does.
  const ResultSet old_loc = MustRun(
      "select city from cities on us-map "
      "at loc covered-by {-71.06 +- 0.2, 42.36 +- 0.2}");
  for (const auto& row : old_loc.rows) {
    EXPECT_NE(row[0].ToString(), "Boston");
  }
  const ResultSet new_loc = MustRun(
      "select city from cities on us-map "
      "at loc covered-by {-98 +- 0.5, 38.5 +- 0.5}");
  ASSERT_EQ(new_loc.rows.size(), 1u);
  EXPECT_EQ(new_loc.rows[0][0].ToString(), "Boston");
  // Index structurally sound afterwards.
  auto cities = catalog_.GetRelation("cities");
  ASSERT_TRUE(cities.ok());
  auto index = (*cities)->SpatialIndex("loc");
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(TreeIsValid(**index));
}

TEST_F(PsqlDmlTest, UpdateWithSpatialQualification) {
  // Tag every city in the mountain west with a sentinel population.
  const ResultSet rs = MustRun(
      "update cities set population = 1 "
      "on us-map at loc covered-by {-110 +- 5, 42 +- 8}");
  EXPECT_GT(rs.rows[0][0].as_int(), 0);
  const ResultSet tagged =
      MustRun("select count(*) from cities where population = 1");
  EXPECT_EQ(tagged.rows[0][0].as_int(), rs.rows[0][0].as_int());
}

TEST_F(PsqlDmlTest, UpdateErrors) {
  Executor exec(&catalog_);
  EXPECT_FALSE(exec.Run("update nowhere set x = 1").ok());
  EXPECT_FALSE(exec.Run("update cities set nope = 1").ok());
  EXPECT_FALSE(
      exec.Run("update cities set population = 'many'").ok());
}

TEST_F(PsqlDmlTest, InsertThenDeleteRoundTrip) {
  const int64_t before = Count("highways");
  MustRun("insert into highways values ('I-99', 1, "
          "'SEGMENT(-78.2 40.5, -77.8 41.0)')");
  EXPECT_EQ(Count("highways"), before + 1);
  const ResultSet rs =
      MustRun("delete from highways where hwy-name = 'I-99'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(Count("highways"), before);
}

}  // namespace
}  // namespace pictdb::psql
