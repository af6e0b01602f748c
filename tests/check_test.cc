#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "check/invariants.h"
#include "check/oracle.h"
#include "common/random.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "rtree/metrics.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/quarantine.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"

#include "lint_guard.h"

namespace pictdb::check {
namespace {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::LeafHit;
using rtree::Neighbor;
using rtree::RTree;
using rtree::RTreeOptions;
using storage::PageId;
using storage::Rid;

struct Env {
  Env() : disk(512), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

std::vector<Entry> UniformPointEntries(uint64_t seed, size_t n) {
  Random rng(seed);
  const auto pts = workload::UniformPoints(&rng, n, workload::PaperFrame());
  std::vector<Rid> rids;
  rids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }
  return pack::MakeLeafEntries(pts, rids);
}

RTree BuildPacked(Env* env, const std::vector<Entry>& entries,
                  size_t max_entries = 0) {
  RTreeOptions opts;
  opts.max_entries = max_entries;
  auto tree = RTree::Create(&env->pool, opts);
  PICTDB_CHECK(tree.ok());
  RTree t = std::move(tree).value();
  PICTDB_CHECK_OK(pack::Pack(&t, entries));
  return t;
}

bool HasViolation(const ValidationReport& report, ViolationKind kind) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [kind](const Violation& v) { return v.kind == kind; });
}

// Teardown guard shared by the validator/diff suites: the checkers can
// only vouch for the tree if they themselves pass every analysis
// unassisted, so each test re-asserts src/check/ carries no
// suppression comments.
class TreeValidatorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    testing_support::AssertNoLintSuppressionsInCheckSubsystem();
  }
};

class DiffRunnerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    testing_support::AssertNoLintSuppressionsInCheckSubsystem();
  }
};

// --- TreeValidator ----------------------------------------------------------

TEST_F(TreeValidatorTest, AcceptsHealthyPackedTree) {
  Env env;
  const auto entries = UniformPointEntries(7, 1000);
  const RTree tree = BuildPacked(&env, entries);

  const ValidationReport report = TreeValidator().Check(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.leaf_entries, 1000u);
  EXPECT_EQ(report.depth, tree.Height() - 1);
  EXPECT_GT(report.nodes, 0u);
  EXPECT_GT(report.coverage, 0.0);
  EXPECT_EQ(env.pool.pinned_frames(), 0u);
}

TEST_F(TreeValidatorTest, AcceptsHealthyGuttmanTree) {
  Env env;
  auto created = RTree::Create(&env.pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  for (const Entry& e : UniformPointEntries(11, 600)) {
    PICTDB_CHECK_OK(tree.Insert(e.mbr, e.AsRid()));
  }
  const ValidationReport report = TreeValidator().Check(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.leaf_entries, 600u);
}

TEST_F(TreeValidatorTest, QualityNumbersAgreeWithMetricsModule) {
  Env env;
  const RTree tree = BuildPacked(&env, UniformPointEntries(3, 500), 8);

  const ValidationReport report = TreeValidator().Check(tree);
  ASSERT_TRUE(report.ok()) << report.ToString();

  auto quality = rtree::MeasureTree(tree);
  ASSERT_TRUE(quality.ok());
  EXPECT_DOUBLE_EQ(report.coverage, quality->coverage);
  EXPECT_DOUBLE_EQ(report.overlap, quality->overlap);
  EXPECT_EQ(report.depth, quality->depth);
  EXPECT_EQ(report.nodes, quality->nodes);
  EXPECT_EQ(report.leaf_entries, quality->size);
}

TEST_F(TreeValidatorTest, CatchesCorruptedInnerMbr) {
  Env env;
  RTree tree = BuildPacked(&env, UniformPointEntries(5, 1000), 8);
  ASSERT_GE(tree.Height(), 2u) << "need an inner node to corrupt";

  // Shrink the root's first child entry to a degenerate rect, rewriting
  // the page through the pool so its checksum is restamped: the damage
  // is purely structural and only the invariant walk can see it.
  {
    auto guard = env.pool.FetchPage(tree.root());
    PICTDB_CHECK(guard.ok());
    rtree::Node node =
        rtree::ReadNode(guard->data(), env.pool.page_size()).value();
    ASSERT_FALSE(node.entries.empty());
    const Point c = node.entries[0].mbr.Center();
    node.entries[0].mbr = Rect::FromPoint(c);
    rtree::WriteNode(node, guard->mutable_data(), env.pool.page_size());
  }

  const ValidationReport report = TreeValidator().Check(tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, ViolationKind::kParentMbrMismatch))
      << report.ToString();
}

TEST_F(TreeValidatorTest, CatchesOnDiskChecksumRot) {
  Env env;
  RTree tree = BuildPacked(&env, UniformPointEntries(9, 300));
  PICTDB_CHECK_OK(env.pool.FlushAll());

  // Flip a payload byte directly on the medium, behind the pool's back.
  // The cached copy stays clean, so only the raw CRC scan can tell.
  std::vector<char> raw(env.disk.page_size());
  PICTDB_CHECK_OK(env.disk.ReadPage(tree.root(), raw.data()));
  raw[40] = static_cast<char>(~raw[40]);
  PICTDB_CHECK_OK(env.disk.WritePage(tree.root(), raw.data()));

  const ValidationReport report = TreeValidator().Check(tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, ViolationKind::kChecksumMismatch))
      << report.ToString();
}

TEST_F(TreeValidatorTest, FlagsReachableQuarantinedPage) {
  Env env;
  const RTree tree = BuildPacked(&env, UniformPointEntries(13, 200));

  storage::PageQuarantine quarantine;
  quarantine.Add(tree.root());
  ValidatorOptions opts;
  opts.quarantine = &quarantine;
  const ValidationReport report = TreeValidator(opts).Check(tree);
  EXPECT_TRUE(
      HasViolation(report, ViolationKind::kQuarantinedPageReachable))
      << report.ToString();
}

// --- Oracle and comparators -------------------------------------------------

TEST(OracleTest, AnswersHandCheckedQueries) {
  Oracle oracle;
  oracle.Insert(Rect(0, 0, 10, 10), Rid{1, 0});
  oracle.Insert(Rect(5, 5, 15, 15), Rid{2, 0});
  oracle.Insert(Rect(100, 100, 110, 110), Rid{3, 0});

  EXPECT_EQ(oracle.Intersects(Rect(0, 0, 20, 20)).size(), 2u);
  EXPECT_EQ(oracle.ContainedIn(Rect(0, 0, 12, 12)).size(), 1u);
  EXPECT_EQ(oracle.AtPoint(Point{7, 7}).size(), 2u);

  const auto nn = oracle.Nearest(Point{0, 0}, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].hit.rid.page_id, 1u);
  EXPECT_DOUBLE_EQ(nn[0].distance, 0.0);
  EXPECT_EQ(nn[1].hit.rid.page_id, 2u);

  EXPECT_TRUE(oracle.Delete(Rect(0, 0, 10, 10), Rid{1, 0}));
  EXPECT_FALSE(oracle.Delete(Rect(0, 0, 10, 10), Rid{1, 0}));
  EXPECT_EQ(oracle.size(), 2u);
}

TEST(OracleTest, JoinPairCountIsExhaustive) {
  Oracle a, b;
  a.Insert(Rect(0, 0, 10, 10), Rid{1, 0});
  a.Insert(Rect(20, 20, 30, 30), Rid{2, 0});
  b.Insert(Rect(5, 5, 25, 25), Rid{10, 0});  // intersects both
  b.Insert(Rect(50, 50, 60, 60), Rid{11, 0});
  EXPECT_EQ(a.CountJoinPairs(b), 2u);
}

TEST(CompareHitsTest, ClassifiesAllThreeVerdicts) {
  const std::vector<LeafHit> full = {
      LeafHit{Rect(0, 0, 1, 1), Rid{1, 0}},
      LeafHit{Rect(2, 2, 3, 3), Rid{2, 0}},
  };
  std::vector<LeafHit> reordered = {full[1], full[0]};
  std::vector<LeafHit> subset = {full[0]};
  std::vector<LeafHit> alien = {LeafHit{Rect(9, 9, 9, 9), Rid{7, 0}}};

  EXPECT_EQ(CompareHits(reordered, full, false), DiffVerdict::kMatch);
  EXPECT_EQ(CompareHits(subset, full, true), DiffVerdict::kDegradedSubset);
  EXPECT_EQ(CompareHits(subset, full, false), DiffVerdict::kWrongAnswer);
  EXPECT_EQ(CompareHits(alien, full, true), DiffVerdict::kWrongAnswer);
}

TEST(CompareNeighborsTest, ClassifiesAllThreeVerdicts) {
  Oracle oracle;
  oracle.Insert(Rect::FromPoint(Point{1, 0}), Rid{1, 0});
  oracle.Insert(Rect::FromPoint(Point{2, 0}), Rid{2, 0});
  oracle.Insert(Rect::FromPoint(Point{3, 0}), Rid{3, 0});
  const Point q{0, 0};

  const auto exact = oracle.Nearest(q, 2);
  EXPECT_EQ(CompareNeighbors(exact, oracle, q, 2, false),
            DiffVerdict::kMatch);

  // Missing the closest entry: admissible only when flagged degraded.
  std::vector<Neighbor> skipped = {exact[1]};
  EXPECT_EQ(CompareNeighbors(skipped, oracle, q, 2, true),
            DiffVerdict::kDegradedSubset);
  EXPECT_EQ(CompareNeighbors(skipped, oracle, q, 2, false),
            DiffVerdict::kWrongAnswer);

  // A distance that appears nowhere in the ranking is wrong regardless.
  std::vector<Neighbor> bogus = {
      Neighbor{LeafHit{Rect(0, 0, 1, 1), Rid{9, 0}}, 0.123}};
  EXPECT_EQ(CompareNeighbors(bogus, oracle, q, 1, true),
            DiffVerdict::kWrongAnswer);
}

// --- DiffRunner -------------------------------------------------------------

Oracle OracleOf(const std::vector<Entry>& entries) { return Oracle(entries); }

TEST_F(DiffRunnerTest, CleanTreeMatchesOracleExactly) {
  Env env;
  const auto entries = UniformPointEntries(21, 2000);
  const RTree tree = BuildPacked(&env, entries);
  const Oracle oracle = OracleOf(entries);

  DiffRunner runner(&tree, &oracle);
  DiffConfig config;
  config.seed = 42;
  config.queries = 2000;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ(report->matches, report->queries) << report->Summary();
}

TEST_F(DiffRunnerTest, ServiceReplayMatchesOracle) {
  Env env;
  const auto entries = UniformPointEntries(23, 1500);
  const RTree tree = BuildPacked(&env, entries);
  const Oracle oracle = OracleOf(entries);

  DiffRunner runner(&tree, &oracle);
  DiffConfig config;
  config.seed = 7;
  config.queries = 1000;
  config.use_service = true;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ(report->matches, report->queries);
  EXPECT_EQ(env.pool.pinned_frames(), 0u);
}

TEST_F(DiffRunnerTest, JoinQueriesMatchBruteForcePairCount) {
  Env env;
  const auto left_entries = UniformPointEntries(31, 800);
  const auto right_entries = UniformPointEntries(37, 800);
  const RTree left = BuildPacked(&env, left_entries);
  const RTree right = BuildPacked(&env, right_entries);
  const Oracle left_oracle = OracleOf(left_entries);
  const Oracle right_oracle = OracleOf(right_entries);

  DiffRunner runner(&left, &left_oracle);
  runner.BindJoin(&right, &right_oracle);
  DiffConfig config;
  config.seed = 3;
  config.queries = 200;
  config.w_join = 0.5;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

TEST_F(DiffRunnerTest, PsqlWhereQueriesMatchRelationScan) {
  storage::InMemoryDiskManager disk(1024);
  storage::BufferPool pool(&disk, 1 << 12);
  rel::Catalog catalog(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog, 4));
  psql::Executor executor(&catalog);

  // Reference for the PSQL path: every city row's loc MBR keyed by its
  // heap Rid, assembled by sequential scan (no index involved).
  auto cities = catalog.GetRelation("cities");
  PICTDB_CHECK(cities.ok());
  auto loc_idx = (*cities)->schema().IndexOf("loc");
  PICTDB_CHECK(loc_idx.ok());
  Oracle psql_oracle;
  auto rid = (*cities)->FirstRid();
  PICTDB_CHECK(rid.ok());
  while (rid->IsValid()) {
    auto tuple = (*cities)->Get(*rid);
    PICTDB_CHECK(tuple.ok());
    psql_oracle.Insert(tuple->at(*loc_idx).as_geometry().Mbr(), *rid);
    rid = (*cities)->NextRid(*rid);
    PICTDB_CHECK(rid.ok());
  }
  ASSERT_GT(psql_oracle.size(), 0u);

  // The spatial side of the diff runs over the same index the executor
  // uses, so bind the tree+oracle pair to it as well.
  auto index = (*cities)->SpatialIndex("loc");
  PICTDB_CHECK(index.ok());
  auto us_map = catalog.GetPicture("us-map");
  PICTDB_CHECK(us_map.ok());

  DiffRunner runner(*index, &psql_oracle);
  runner.BindPsql(&executor, "cities", "us-map", "loc", &psql_oracle);
  runner.SetPsqlFrame((*us_map)->frame);
  DiffConfig config;
  config.seed = 5;
  config.queries = 300;
  config.frame = (*us_map)->frame;
  config.max_half_extent = 10.0;
  config.min_half_extent = 1.0;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

TEST_F(DiffRunnerTest, FaultyDiskYieldsNoWrongAnswers) {
  storage::InMemoryDiskManager mem(512);
  storage::FaultPlan quiet;  // build cleanly, then arm
  storage::FaultInjectionDiskManager faulty(&mem, quiet);
  storage::BufferPoolOptions popts;
  popts.max_read_retries = 10;
  popts.retry_backoff_base = std::chrono::microseconds(0);
  storage::BufferPool pool(&faulty, 64, /*shards=*/1, popts);

  const auto entries = UniformPointEntries(41, 2000);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(pack::Pack(&tree, entries));
  const Oracle oracle = OracleOf(entries);

  // 1% transient faults on every read, tiny pool so reads actually hit
  // the disk. Retries and degraded mode must keep every answer honest.
  storage::FaultPlan plan;
  plan.seed = 99;
  plan.transient_read_error_rate = 0.01;
  plan.read_bit_flip_rate = 0.01;
  faulty.SetPlan(plan);

  DiffRunner runner(&tree, &oracle);
  DiffConfig config;
  config.seed = 17;
  config.queries = 2000;
  config.degraded_ok = true;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->wrong_answers, 0u) << report->Summary();
  EXPECT_EQ(report->failures, 0u) << report->Summary();
}

TEST_F(DiffRunnerTest, CatchesPlantedWrongAnswers) {
  Env env;
  const auto entries = UniformPointEntries(43, 2000);
  RTree tree = BuildPacked(&env, entries, 8);
  ASSERT_GE(tree.Height(), 2u);
  const Oracle oracle = OracleOf(entries);

  // Shrink one root entry so its whole subtree is wrongly pruned; the
  // checksum is restamped, so only the oracle diff can see the lie.
  {
    auto guard = env.pool.FetchPage(tree.root());
    PICTDB_CHECK(guard.ok());
    rtree::Node node =
        rtree::ReadNode(guard->data(), env.pool.page_size()).value();
    ASSERT_FALSE(node.entries.empty());
    node.entries[0].mbr = Rect::FromPoint(node.entries[0].mbr.Center());
    rtree::WriteNode(node, guard->mutable_data(), env.pool.page_size());
  }

  DiffRunner runner(&tree, &oracle);
  DiffConfig config;
  config.seed = 19;
  config.queries = 2000;
  auto report = runner.Run(config);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->wrong_answers, 0u) << report->Summary();
  EXPECT_FALSE(report->mismatches.empty());
}

}  // namespace
}  // namespace pictdb::check
