// Failure-injection tests: Validate() must detect hand-built structural
// corruption in R-trees, and the CHECK machinery must abort on invariant
// violations (death tests).

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pictdb::rtree {
namespace {

using geom::Rect;
using storage::PageId;
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

Entry ChildEntry(const Rect& r, PageId child) {
  Entry e;
  e.mbr = r;
  e.payload = Entry::PayloadFromChild(child);
  return e;
}

TEST(ValidationTest, DetectsNonMinimalParentMbr) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());

  auto leaf = tree->BulkWriteNode(
      0, {LeafEntry(Rect(0, 0, 1, 1), 1), LeafEntry(Rect(2, 2, 3, 3), 2)});
  ASSERT_TRUE(leaf.ok());
  // Parent claims a *larger* MBR than the leaf's minimal bound.
  auto root = tree->BulkWriteNode(
      1, {ChildEntry(Rect(0, 0, 10, 10), *leaf)});
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(tree->BulkSetRoot(*root, 2, 2).ok());

  const Status st = tree->Validate();
  ASSERT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("minimal"), std::string::npos);
}

TEST(ValidationTest, DetectsWrongLevel) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());

  // Child written at level 1 but hung one level above a level-1 parent's
  // expectation (parent at level 1 expects level-0 children).
  auto child = tree->BulkWriteNode(1, {LeafEntry(Rect(0, 0, 1, 1), 1)});
  ASSERT_TRUE(child.ok());
  auto root = tree->BulkWriteNode(1, {ChildEntry(Rect(0, 0, 1, 1), *child)});
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(tree->BulkSetRoot(*root, 2, 1).ok());

  EXPECT_TRUE(tree->Validate().IsCorruption());
}

TEST(ValidationTest, DetectsSizeMismatch) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  auto leaf = tree->BulkWriteNode(0, {LeafEntry(Rect(0, 0, 1, 1), 1)});
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(tree->BulkSetRoot(*leaf, 1, /*size=*/99).ok());
  const Status st = tree->Validate();
  ASSERT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("size"), std::string::npos);
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

TEST(ValidationTest, CleanTreeValidates) {
  Env env;
  RTreeOptions opts;
  opts.max_entries = 4;
  auto tree = RTree::Create(&env.pool, opts);
  ASSERT_TRUE(tree.ok());
  auto leaf1 = tree->BulkWriteNode(
      0, {LeafEntry(Rect(0, 0, 1, 1), 1), LeafEntry(Rect(2, 2, 3, 3), 2)});
  auto leaf2 = tree->BulkWriteNode(
      0, {LeafEntry(Rect(5, 5, 6, 6), 3), LeafEntry(Rect(7, 7, 8, 8), 4)});
  ASSERT_TRUE(leaf1.ok() && leaf2.ok());
  auto root = tree->BulkWriteNode(
      1, {ChildEntry(Rect(0, 0, 3, 3), *leaf1),
          ChildEntry(Rect(5, 5, 8, 8), *leaf2)});
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(tree->BulkSetRoot(*root, 2, 4).ok());
  EXPECT_TRUE(tree->Validate().ok());
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
