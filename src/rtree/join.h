#ifndef PICTDB_RTREE_JOIN_H_
#define PICTDB_RTREE_JOIN_H_

#include <functional>

#include "common/status.h"
#include "rtree/rtree.h"

namespace pictdb::rtree {

/// Accounting for join benchmarks.
struct JoinStats {
  uint64_t nodes_visited = 0;
  /// Rect tests made. SpatialJoin counts, per pair of nodes on unequal
  /// levels, the taller node's entries; per pair on equal levels, the
  /// right node's entries (filtered against the region the two nodes
  /// share), the left node's when two or more right entries survive,
  /// and the lanes of every candidate-pair kernel call. NestedLoopJoin
  /// counts |L| x |R|.
  uint64_t pairs_tested = 0;
  uint64_t results = 0;
  /// Node pairs skipped over unreadable/corrupt pages (degraded mode).
  uint64_t skipped_subtrees = 0;
  /// True iff any pair was skipped: the join output may be partial.
  bool degraded = false;
};

/// Called for every pair of leaf entries whose MBRs intersect.
using JoinCallback =
    std::function<void(const LeafHit& left, const LeafHit& right)>;

/// The paper's juxtaposition engine: "simultaneous search on the two
/// spatial organizations which correspond to the same area". Performs a
/// synchronized depth-first traversal of both R-trees, descending only
/// into pairs of subtrees whose MBRs intersect, and testing at each pair
/// of nodes only the entries inside the region both nodes cover. Trees
/// of different heights are handled by descending the taller side first.
/// Nodes decoded for one pair of subtrees are reused by the next pairs
/// that name the same page.
Status SpatialJoin(const RTree& left, const RTree& right,
                   const JoinCallback& callback, JoinStats* stats = nullptr,
                   const SearchOptions& options = {});

/// Baseline for the juxtaposition benchmark: test all |L|x|R| leaf pairs.
Status NestedLoopJoin(const RTree& left, const RTree& right,
                      const JoinCallback& callback,
                      JoinStats* stats = nullptr);

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_JOIN_H_
