#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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

TEST_F(TreeValidatorTest, CrcScanReportsCachedPageTheMediumLost) {
  storage::InMemoryDiskManager mem(512);
  storage::FaultInjectionDiskManager faulty(&mem, storage::FaultPlan{});
  storage::BufferPool pool(&faulty, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(pack::Pack(&tree, UniformPointEntries(9, 300)));
  ASSERT_GE(tree.Height(), 2u) << "need a leaf below the root";
  PICTDB_CHECK_OK(pool.FlushAll());

  // Every page stays cached, so the walk never asks the medium for the
  // leaf; only the raw CRC scan can find that it is gone.
  PageId leaf = tree.root();
  for (;;) {
    auto guard = pool.FetchPage(leaf);
    PICTDB_CHECK(guard.ok());
    const rtree::Node node =
        rtree::ReadNode(guard->data(), pool.page_size()).value();
    if (node.is_leaf()) break;
    leaf = node.entries[0].AsChild();
  }
  ASSERT_NE(leaf, tree.root());
  faulty.AddPermanentReadFault(leaf);

  const ValidationReport report = TreeValidator().Check(tree);
  EXPECT_FALSE(report.ok()) << report.ToString();
  const auto lost = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) {
        return v.kind == ViolationKind::kUnreadablePage;
      });
  ASSERT_NE(lost, report.violations.end()) << report.ToString();
  EXPECT_EQ(lost->page, leaf);
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

// --- TreeValidator findings -------------------------------------------------
// One hand-built or byte-patched tree per ViolationKind, every finding
// pinned by kind, page and detail, in report order.

using enum ViolationKind;
using Findings = std::vector<Violation>;

/// A tree of fan-out 4 built node by node through the bulk-load
/// interface, or patched through the pool (checksum restamped) where
/// BulkWriteNode refuses the shape (empty, overfull).
struct HandBuilt {
  static RTree Create(Env* env) {
    RTreeOptions opts;
    opts.max_entries = 4;
    auto tree = RTree::Create(&env->pool, opts);
    PICTDB_CHECK(tree.ok());
    return std::move(tree).value();
  }
  /// Leaf entries over `rects`, with tuple ids 1, 2, ...
  static std::vector<Entry> LeafEntries(const std::vector<Rect>& rects) {
    std::vector<Entry> entries;
    for (const Rect& r : rects) {
      const Rid rid{static_cast<PageId>(entries.size() + 1), 0};
      entries.push_back(Entry{r, Entry::PayloadFromRid(rid)});
    }
    return entries;
  }

  PageId Write(uint16_t level, const std::vector<Entry>& entries) {
    auto id = tree.BulkWriteNode(level, entries);
    PICTDB_CHECK(id.ok());
    return *id;
  }
  PageId Leaf(const std::vector<Rect>& rects) {
    return Write(0, LeafEntries(rects));
  }
  /// A level-1 node over (entry MBR, child page) pairs.
  PageId Inner(const std::vector<std::pair<Rect, PageId>>& children) {
    std::vector<Entry> entries;
    for (const auto& [mbr, child] : children) {
      entries.push_back(Entry{mbr, Entry::PayloadFromChild(child)});
    }
    return Write(1, entries);
  }
  void Patch(PageId id, uint16_t level, const std::vector<Entry>& entries) {
    auto guard = env.pool.FetchPage(id);
    PICTDB_CHECK(guard.ok());
    rtree::WriteNode(rtree::Node{level, entries}, guard->mutable_data(),
                     env.pool.page_size());
  }
  void SetRoot(PageId root, uint32_t height, uint64_t size) {
    PICTDB_CHECK_OK(tree.BulkSetRoot(root, height, size));
  }

  Env env;
  RTree tree = Create(&env);
};

/// Two leaves under the root, the second holding one entry of min 2.
PageId WithUnderfullLeaf(HandBuilt& h) {
  const PageId l1 = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
  const PageId l2 = h.Leaf({Rect(5, 5, 6, 6)});
  h.SetRoot(h.Inner({{Rect(0, 0, 3, 3), l1}, {Rect(5, 5, 6, 6), l2}}), 2, 3);
  return l2;
}

struct FindingCase {
  const char* name;
  Findings (*build)(HandBuilt&);
  bool check_min_fill = false;
};

const FindingCase kFindingCases[] = {
    {"CleanTree",
     [](HandBuilt& h) -> Findings {
       const PageId l1 = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
       const PageId l2 = h.Leaf({Rect(5, 5, 6, 6), Rect(7, 7, 8, 8)});
       h.SetRoot(h.Inner({{Rect(0, 0, 3, 3), l1}, {Rect(5, 5, 8, 8), l2}}),
                 2, 4);
       return {};
     }},
    {"NonMinimalParentMbr",  // the parent claims more than the leaf holds
     [](HandBuilt& h) -> Findings {
       const PageId leaf = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
       h.SetRoot(h.Inner({{Rect(0, 0, 10, 10), leaf}}), 2, 2);
       return {{kParentMbrMismatch, leaf,
                "parent entry [0, 0, 10, 10] != minimal bound [0, 0, 3, 3]"}};
     }},
    {"WrongLevel",  // a level-1 child under a level-1 parent
     [](HandBuilt& h) -> Findings {
       const PageId child = h.Inner({{Rect(0, 0, 1, 1), 1}});
       h.SetRoot(h.Inner({{Rect(0, 0, 1, 1), child}}), 2, 1);
       return {{kLevelMismatch, child, "stored level 1, walk depth implies 0"},
               {kSizeMismatch, h.tree.meta_page(),
                "meta records 1 entries, walk found 0"}};
     }},
    {"SizeMismatch",
     [](HandBuilt& h) -> Findings {
       h.SetRoot(h.Leaf({Rect(0, 0, 1, 1)}), 1, 99);
       return {{kSizeMismatch, h.tree.meta_page(),
                "meta records 99 entries, walk found 1"}};
     }},
    {"DuplicatePage",  // two parent entries point at one leaf
     [](HandBuilt& h) -> Findings {
       const PageId leaf = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
       h.SetRoot(
           h.Inner({{Rect(0, 0, 3, 3), leaf}, {Rect(0, 0, 3, 3), leaf}}), 2,
           2);
       return {{kDuplicatePage, leaf,
                "page reachable along more than one path"}};
     }},
    {"CycleToRoot",  // a duplicate first, though its level is wrong too
     [](HandBuilt& h) -> Findings {
       const PageId root = h.Inner({{Rect(0, 0, 1, 1), 0}});
       h.Patch(root, 1, {Entry{Rect(0, 0, 1, 1), root}});
       h.SetRoot(root, 2, 0);
       return {{kDuplicatePage, root,
                "page reachable along more than one path"}};
     }},
    {"OverfullNode",
     [](HandBuilt& h) -> Findings {
       const PageId leaf = h.Leaf({Rect(0, 0, 1, 1)});
       h.Patch(leaf, 0,
               HandBuilt::LeafEntries({Rect(0, 0, 1, 1), Rect(1, 1, 2, 2),
                                       Rect(2, 2, 3, 3), Rect(3, 3, 4, 4),
                                       Rect(4, 4, 5, 5)}));
       h.SetRoot(leaf, 1, 5);
       return {{kOverfullNode, leaf, "5 entries > max 4"}};
     }},
    {"EmptyNode",
     [](HandBuilt& h) -> Findings {
       const PageId l1 = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
       const PageId l2 = h.Leaf({Rect(5, 5, 6, 6)});
       h.Patch(l2, 0, {});
       h.SetRoot(h.Inner({{Rect(0, 0, 3, 3), l1}, {Rect(5, 5, 6, 6), l2}}),
                 2, 2);
       return {{kEmptyNode, l2, "non-root node has no entries"},
               {kParentMbrMismatch, l2,
                "parent entry [5, 5, 6, 6] != minimal bound "
                "[inf, inf, -inf, -inf]"}};
     }},
    {"UnderfullNodeAllowedByDefault",
     [](HandBuilt& h) -> Findings {
       WithUnderfullLeaf(h);
       return {};
     }},
    {"UnderfullNode",
     [](HandBuilt& h) -> Findings {
       return {{kUnderfullNode, WithUnderfullLeaf(h), "1 entries < min 2"}};
     },
     /*check_min_fill=*/true},
    {"InvertedEntryMbr",
     [](HandBuilt& h) -> Findings {
       Rect inverted(0, 0, 1, 1);
       std::swap(inverted.lo.x, inverted.hi.x);
       const PageId leaf = h.Leaf({inverted});
       h.SetRoot(leaf, 1, 1);
       return {{kInvalidEntryMbr, leaf,
                "entry MBR empty or non-finite: RECT(empty)"}};
     }},
    {"NanEntryMbr",  // not descended through, so its leaf goes uncounted
     [](HandBuilt& h) -> Findings {
       Rect nan(0, 0, 1, 1);
       nan.lo.x = std::numeric_limits<double>::quiet_NaN();
       const PageId root = h.Inner({{nan, h.Leaf({Rect(0, 0, 1, 1)})}});
       h.SetRoot(root, 2, 1);
       return {{kInvalidEntryMbr, root,
                "entry MBR empty or non-finite: RECT(nan 0, 1 1)"},
               {kSizeMismatch, h.tree.meta_page(),
                "meta records 1 entries, walk found 0"}};
     }},
    {"UnreadablePage",
     [](HandBuilt& h) -> Findings {
       h.SetRoot(h.Inner({{Rect(0, 0, 1, 1), 4000}}), 2, 0);
       return {{kUnreadablePage, 4000,
                "OutOfRange: read of unallocated page 4000"}};
     }},
};

class TreeValidatorFindingTest
    : public TreeValidatorTest,
      public ::testing::WithParamInterface<FindingCase> {};

TEST_P(TreeValidatorFindingTest, ReportsExactlyTheExpectedFindings) {
  HandBuilt h;
  const Findings expected = GetParam().build(h);
  ValidatorOptions opts;
  opts.check_min_fill = GetParam().check_min_fill;
  const ValidationReport report = TreeValidator(opts).Check(h.tree);
  ASSERT_EQ(report.violations.size(), expected.size()) << report.ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    // Violation::ToString spells out kind, page and detail.
    EXPECT_EQ(report.violations[i].ToString(), expected[i].ToString());
  }
  EXPECT_EQ(h.env.pool.pinned_frames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Trees, TreeValidatorFindingTest, ::testing::ValuesIn(kFindingCases),
    [](const ::testing::TestParamInfo<FindingCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(TreeValidatorTest, ReportsEveryFindingOfOneTreeInWalkOrder) {
  // Root entries, visited last first: a level-1 node one level too
  // high, an unallocated page, and one leaf reached twice.
  HandBuilt h;
  const PageId leaf = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
  const PageId high = h.Inner({{Rect(5, 5, 6, 6), 3}});
  h.SetRoot(h.Inner({{Rect(0, 0, 3, 3), leaf},
                     {Rect(0, 0, 3, 3), leaf},
                     {Rect(0, 0, 1, 1), 4000},
                     {Rect(5, 5, 6, 6), high}}),
            2, 5);

  const std::string expected =
      "C=9 O=0 D=1 N=3 J=2 [4 violation(s)]"
      "\n  level-mismatch page=" + std::to_string(high) +
      " (stored level 1, walk depth implies 0)"
      "\n  unreadable-page page=4000 (OutOfRange: read of unallocated page "
      "4000)"
      "\n  duplicate-page page=" + std::to_string(leaf) +
      " (page reachable along more than one path)"
      "\n  size-mismatch page=" + std::to_string(h.tree.meta_page()) +
      " (meta records 5 entries, walk found 2)";
  EXPECT_EQ(TreeValidator().Check(h.tree).ToString(), expected);
}

TEST_F(TreeValidatorTest, ChecksumScanReportsRotInWalkOrder) {
  // The walk reaches the root, then l2 (the last entry), then l1.
  HandBuilt h;
  const PageId l1 = h.Leaf({Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
  const PageId l2 = h.Leaf({Rect(5, 5, 6, 6), Rect(7, 7, 8, 8)});
  h.SetRoot(h.Inner({{Rect(0, 0, 3, 3), l1}, {Rect(5, 5, 8, 8), l2}}), 2, 4);
  PICTDB_CHECK_OK(h.env.pool.FlushAll());
  std::vector<char> raw(h.env.disk.page_size());
  for (const PageId id : {l1, l2}) {
    PICTDB_CHECK_OK(h.env.disk.ReadPage(id, raw.data()));
    raw[40] = static_cast<char>(~raw[40]);
    PICTDB_CHECK_OK(h.env.disk.WritePage(id, raw.data()));
  }

  ValidatorOptions opts;
  opts.max_violations = 1;
  const ValidationReport report = TreeValidator(opts).Check(h.tree);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_EQ(report.violations[0].kind, kChecksumMismatch);
  EXPECT_EQ(report.violations[0].page, l2);
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
