// Failure-injection tests: the bulk-load interface must refuse malformed
// nodes, node decode must reject a corrupt count, and the CHECK machinery
// must abort on invariant violations (death tests). Hand-built corrupt
// trees are checked by the TreeValidator finding table (check_test.cc).

#include <gtest/gtest.h>

#include "common/logging.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pictdb::rtree {
namespace {

using geom::Rect;
using storage::Rid;

struct Env {
  Env() : disk(512), pool(&disk, 1024) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

Entry LeafEntry(const Rect& r, uint32_t id) {
  Entry e;
  e.mbr = r;
  e.payload = Entry::PayloadFromRid(Rid{id, 0});
  return e;
}

TEST(ValidationTest, BulkWriteRejectsOverfullAndEmptyNodes) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  std::vector<Entry> five;
  for (uint32_t i = 0; i < 5; ++i) {
    five.push_back(LeafEntry(Rect(i, i, i + 1, i + 1), i));
  }
  EXPECT_TRUE(tree->BulkWriteNode(0, five).status().IsInvalidArgument());
  EXPECT_TRUE(tree->BulkWriteNode(0, {}).status().IsInvalidArgument());
}

// --- CHECK machinery ---------------------------------------------------------

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ PICTDB_CHECK(1 == 2) << "impossible arithmetic"; },
               "CHECK failed: 1 == 2.*impossible arithmetic");
}

TEST(CheckDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(PICTDB_CHECK_OK(Status::IOError("disk gone")),
               "IOError: disk gone");
}

TEST(CheckDeathTest, PassingChecksAreSilent) {
  PICTDB_CHECK(true) << "never evaluated";
  PICTDB_CHECK_OK(Status::OK());
  PICTDB_DCHECK(true);
  SUCCEED();
}

TEST(NodeDecodeTest, CorruptCountIsCorruption) {
  // A node page with an impossible entry count must fail the decode
  // with Corruption rather than read out of bounds (or abort).
  std::vector<char> page(512, 0);
  const uint16_t bogus_count = 9999;
  std::memcpy(page.data() + 2, &bogus_count, 2);
  auto node = ReadNode(page.data(), 512);
  ASSERT_FALSE(node.ok());
  EXPECT_TRUE(node.status().IsCorruption()) << node.status().ToString();
  SoaNode soa;
  EXPECT_TRUE(ReadNodeSoa(page.data(), 512, &soa).IsCorruption());
}

}  // namespace
}  // namespace pictdb::rtree
