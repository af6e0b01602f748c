#ifndef PICTDB_TESTS_TREE_CHECK_H_
#define PICTDB_TESTS_TREE_CHECK_H_

// The tests' structural check of an R-tree: the full TreeValidator walk
// (parent MBRs, levels, fill, size, CRCs, pin leaks) as a gtest
// predicate, so a failed ASSERT_TRUE / EXPECT_TRUE prints the report.

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "rtree/rtree.h"

namespace pictdb::testing_support {

inline ::testing::AssertionResult TreeIsValid(const rtree::RTree& tree) {
  const check::ValidationReport report = check::TreeValidator().Check(tree);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.ToString();
}

}  // namespace pictdb::testing_support

#endif  // PICTDB_TESTS_TREE_CHECK_H_
