#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.h"
#include "common/random.h"
#include "geom/transform.h"
#include "pack/pack.h"
#include "pack/rotation.h"
#include "rtree/metrics.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::check {
namespace {

using geom::Point;
using rtree::Entry;
using rtree::RTree;
using rtree::RTreeOptions;
using storage::PageId;
using storage::Rid;

// Table 1 regression: for each experiment size J the packed tree must be
// no worse than the dynamically grown (Guttman INSERT) tree on the
// measures that are geometrically reproducible — depth D, node count N,
// and nodes visited per query A (EXPERIMENTS.md records why the paper's
// absolute C/O columns are not attainable: NN packing trades coverage
// for fullness). All structural numbers come from TreeValidator, so the
// regression also re-certifies that both trees satisfy every invariant
// and that C/O/D/N are measured (not assumed) on every run.

struct Env {
  Env() : disk(512), pool(&disk, 8192) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

RTreeOptions PaperOptions() {
  RTreeOptions opts;
  opts.max_entries = 4;  // the paper's experiments use tiny fanout
  opts.min_entries = 2;
  return opts;
}

std::vector<Entry> ExperimentEntries(size_t j) {
  Random rng(500);  // one fixed stream; J prefixes of it nest
  const auto pts = workload::UniformPoints(&rng, j, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < j; ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }
  return pack::MakeLeafEntries(pts, rids);
}

class Table1RegressionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Table1RegressionTest, PackedBeatsInsertOnEveryMeasure) {
  const size_t j = GetParam();
  const std::vector<Entry> entries = ExperimentEntries(j);

  Env env;
  auto packed_created = RTree::Create(&env.pool, PaperOptions());
  PICTDB_CHECK(packed_created.ok());
  RTree packed = std::move(packed_created).value();
  PICTDB_CHECK_OK(pack::Pack(&packed, entries));

  auto insert_created = RTree::Create(&env.pool, PaperOptions());
  PICTDB_CHECK(insert_created.ok());
  RTree inserted = std::move(insert_created).value();
  for (const Entry& e : entries) {
    PICTDB_CHECK_OK(inserted.Insert(e.mbr, e.AsRid()));
  }

  const TreeValidator validator;
  const ValidationReport p = validator.Check(packed);
  const ValidationReport g = validator.Check(inserted);
  ASSERT_TRUE(p.ok()) << p.ToString();
  ASSERT_TRUE(g.ok()) << g.ToString();
  ASSERT_EQ(p.leaf_entries, j);
  ASSERT_EQ(g.leaf_entries, j);

  // C and O are measured (and must be finite and positive at any
  // non-trivial size); D and N must not regress past the INSERT tree.
  EXPECT_GT(p.coverage, 0.0);
  EXPECT_GE(p.overlap, 0.0);
  EXPECT_LE(p.depth, g.depth) << "packed " << p.ToString() << "\ninsert "
                              << g.ToString();
  EXPECT_LE(p.nodes, g.nodes);
  if (j >= 100) {
    // At experiment scale packing strictly wins on node count and on the
    // paper's A column (average nodes visited per membership query).
    EXPECT_LT(p.nodes, g.nodes);
  }
  if (j >= 500) {
    // Membership probes, as in Table 1: query the data points themselves.
    // (Below a few hundred entries the A ordering is seed noise.)
    Random prng(500);
    const auto probes =
        workload::UniformPoints(&prng, j, workload::PaperFrame());
    auto pa = rtree::AverageNodesVisited(packed, probes);
    auto ga = rtree::AverageNodesVisited(inserted, probes);
    ASSERT_TRUE(pa.ok() && ga.ok());
    EXPECT_LT(*pa, *ga);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, Table1RegressionTest,
                         ::testing::Values(10, 100, 500, 900));

// Theorem 3.2: point data admits a packing with zero leaf overlap. The
// rotation construction realizes it; the validator must measure O = 0.
TEST(Theorem32Test, RotationPackingHasZeroMeasuredOverlap) {
  Random rng(900);
  const auto pts =
      workload::UniformPoints(&rng, 900, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }

  Env env;
  auto created = RTree::Create(&env.pool, PaperOptions());
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  geom::Transform rotation;
  PICTDB_CHECK_OK(pack::PackWithRotation(&tree, pts, rids, &rotation));

  const ValidationReport report = TreeValidator().Check(tree);
  ASSERT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.leaf_entries, 900u);
  EXPECT_EQ(report.overlap, 0.0) << report.ToString();
  EXPECT_GT(report.coverage, 0.0);
}

}  // namespace
}  // namespace pictdb::check
