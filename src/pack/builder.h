#ifndef PICTDB_PACK_BUILDER_H_
#define PICTDB_PACK_BUILDER_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "common/status.h"
#include "pack/pack.h"
#include "rtree/rtree.h"

namespace pictdb::pack {

/// The key an orderer sorts a level by before the node cutter runs: the
/// criterion for kSortChunk, ascending x for kStr, and none (input
/// order) for kNearestNeighbor, whose grouping picks its own seeds.
std::optional<SortCriterion> LevelKey(const PackOptions& options);

/// An orderer pushes one level's entries to the sink in stable LevelKey
/// order. Pack orders in memory; PackExternal merges spilled runs.
using EntrySink = std::function<Status(const rtree::Entry&)>;
using LevelOrderer = std::function<Status(const EntrySink&)>;

/// The level builder shared by Pack and PackExternal: cuts the `n` >= 1
/// leaf entries `leaves` yields into nodes, then orders and cuts every
/// upper level in memory until one root remains, and sets the root last.
/// Performs no input validation.
Status BuildTree(rtree::RTree* tree, const PackOptions& options, uint64_t n,
                 const LevelOrderer& leaves);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_BUILDER_H_
