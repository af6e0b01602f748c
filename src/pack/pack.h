#ifndef PICTDB_PACK_PACK_H_
#define PICTDB_PACK_PACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/heap_file.h"

namespace pictdb::pack {

/// The paper's "Order objects of DLIST by some spatial criterion" — the
/// criterion is pluggable; ascending x is the paper's example and the
/// default.
enum class SortCriterion {
  kAscendingX,
  kAscendingY,
  kHilbert,
};

/// How one level's entries are cut into nodes. Every strategy runs
/// through the same level builder: an orderer yields the level in
/// stable sort-key order, and the strategy's node cutter turns that
/// stream into node pages.
enum class PackStrategy {
  kNearestNeighbor,  // the paper's PACK (§3.3): seed + B-1 nearest
  kSortChunk,        // sort by criterion, cut runs of B ("lowx", Hilbert)
  kStr,              // Sort-Tile-Recursive: x-slabs of S·B, cut by y
};

struct PackOptions {
  /// Orders nearest-neighbor seeds and sort-chunk runs; STR ignores it.
  SortCriterion criterion = SortCriterion::kAscendingX;
  PackStrategy strategy = PackStrategy::kNearestNeighbor;
  /// When non-zero, Pack() routes through the external-sort loader
  /// (src/pack/external.h): the leaf level is key-sorted in buffers of
  /// at most this many bytes, spilled as CRC-framed runs, and merged
  /// straight into the node cutter. Zero means sort fully in memory.
  /// Nearest-neighbor packing needs a whole level in memory and rejects
  /// a budget with NotSupported.
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files when the external path runs.
  std::string spill_dir = ".";
};

/// Rejects entries no packer can order: every MBR coordinate must be
/// finite and the rect non-empty (lo <= hi). NaN coordinates violate
/// strict weak ordering inside std::stable_sort (UB), and an all-empty
/// input leaves the Hilbert frame inverted (inf - inf = NaN feeding an
/// undefined NaN→uint32 cast) — so both loaders check every entry
/// before touching the tree and surface InvalidArgument instead.
[[nodiscard]] Status ValidatePackEntry(const rtree::Entry& entry);

/// Order-preserving bijection from double to uint64: a < b (as doubles,
/// no NaNs) iff MonotoneBits(a) < MonotoneBits(b). -0.0 maps below +0.0.
uint64_t MonotoneBits(double value);

/// The 64-bit sort key all packers order by: MonotoneBits of the MBR
/// center's leading coordinate for the ascending criteria, the Hilbert
/// value of the center within `hilbert_frame` for kHilbert. Materalized
/// once per entry (never recomputed inside a comparator) and identical
/// to the key the external loader writes into spill records — the
/// in-memory sort is the golden reference for the external path.
uint64_t SortKey(const rtree::Entry& entry, SortCriterion criterion,
                 const geom::Rect& hilbert_frame);

/// Bulk-loads `leaf_items` into a freshly created (empty) tree, level
/// by level, with `options.strategy`. A non-zero memory budget routes
/// through PackExternal over a VectorEntrySource. Validates every entry
/// (see ValidatePackEntry).
Status Pack(rtree::RTree* tree, std::vector<rtree::Entry> leaf_items,
            const PackOptions& options = {});

/// One level of the packer: `items` cut into nodes of at most
/// `max_per_node` exactly as Pack() cuts that level. Every group is
/// non-empty, and more than one is produced when items.size() >
/// max_per_node.
std::vector<std::vector<rtree::Entry>> Group(
    const std::vector<rtree::Entry>& items, size_t max_per_node,
    const PackOptions& options);

/// Convenience: wrap points+rids into leaf entries.
std::vector<rtree::Entry> MakeLeafEntries(
    const std::vector<geom::Point>& points,
    const std::vector<storage::Rid>& rids);
std::vector<rtree::Entry> MakeLeafEntries(
    const std::vector<geom::Rect>& rects,
    const std::vector<storage::Rid>& rids);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_PACK_H_
