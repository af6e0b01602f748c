#ifndef PICTDB_RTREE_NODE_H_
#define PICTDB_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/status_or.h"
#include "geom/rect.h"
#include "simd/rect_kernels.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace pictdb::rtree {

/// One slot of an R-tree node, the paper's
///   (I, tuple-identifier)  — leaf entries, payload is a Rid
///   (I, child-pointer)     — non-leaf entries, payload is a PageId
/// `I` is the minimal bounding rectangle of everything below the entry.
struct Entry {
  geom::Rect mbr;
  uint64_t payload = 0;

  static uint64_t PayloadFromRid(const storage::Rid& rid) {
    // The packed form is (page_id << 16) | slot; a page id wider than
    // 48 bits would shift into oblivion and alias another tuple.
    PICTDB_CHECK((static_cast<uint64_t>(rid.page_id) >> 48) == 0)
        << "rid page id " << rid.page_id << " does not fit in 48 bits";
    return (static_cast<uint64_t>(rid.page_id) << 16) | rid.slot;
  }
  static uint64_t PayloadFromChild(storage::PageId child) { return child; }

  storage::Rid AsRid() const {
    return storage::Rid{static_cast<storage::PageId>(payload >> 16),
                        static_cast<uint16_t>(payload & 0xFFFF)};
  }
  storage::PageId AsChild() const {
    return static_cast<storage::PageId>(payload);
  }
};

/// In-memory image of an R-tree node. Nodes are read from / written to
/// fixed-size pages; manipulating a decoded copy keeps the algorithms free
/// of offset arithmetic. Level 0 is the leaf level (the paper's CLASS
/// field); `entries.size()` is the paper's VALID counter.
struct Node {
  uint16_t level = 0;
  std::vector<Entry> entries;

  bool is_leaf() const { return level == 0; }

  /// Minimal rectangle bounding all entries. Recomputed on every call
  /// (entries are public and freely mutated by the update algorithms,
  /// so the node cannot memoize safely) — callers in loops must hoist
  /// the result instead of re-calling; MbrComputeCountForTesting() lets
  /// tests pin that down.
  geom::Rect Mbr() const;
};

/// Total Node::Mbr() invocations in this process. The regression test
/// for the "Mbr recomputed in hot loops" fix diffs this around
/// traversals to prove each node's bound is computed at most once.
uint64_t MbrComputeCountForTesting();

/// Struct-of-arrays image of one node: the same entries as `Node`, but
/// with each coordinate in its own contiguous lane so the simd rect
/// kernels can test a whole node per call. Decoded from the identical
/// on-disk page layout (the disk format is entry-major and unchanged —
/// the transpose happens at decode, once per node visit).
///
/// Reuse one instance across decodes: ReadNodeSoa only resize()s the
/// lane vectors, so after the first full-capacity node no traversal
/// allocates.
struct SoaNode {
  uint16_t level = 0;
  std::vector<double> xmin;
  std::vector<double> ymin;
  std::vector<double> xmax;
  std::vector<double> ymax;
  std::vector<uint64_t> payloads;

  size_t count() const { return payloads.size(); }
  bool is_leaf() const { return level == 0; }

  simd::RectSoa rects() const {
    return simd::RectSoa{xmin.data(), ymin.data(), xmax.data(), ymax.data(),
                         payloads.size()};
  }

  geom::Rect RectAt(size_t i) const {
    return simd::LaneRect(rects(), i);
  }
  storage::Rid RidAt(size_t i) const {
    return storage::Rid{static_cast<storage::PageId>(payloads[i] >> 16),
                        static_cast<uint16_t>(payloads[i] & 0xFFFF)};
  }
  storage::PageId ChildAt(size_t i) const {
    return static_cast<storage::PageId>(payloads[i]);
  }

  /// Minimal rectangle bounding all (non-empty) entries — same result
  /// as Node::Mbr(). Hoist in loops, as with Node::Mbr().
  geom::Rect Mbr() const;
};

/// Maximum entries that fit in a page of the given size.
size_t NodePageCapacity(uint32_t page_size);

/// Decode a node from its page image. A count beyond NodePageCapacity
/// (a page that passed its checksum but is not a node) is Corruption.
StatusOr<Node> ReadNode(const char* page, uint32_t page_size);

/// Decode a node from its page image into SoA lanes, reusing `out`'s
/// storage. Corruption on a bad count, like ReadNode.
Status ReadNodeSoa(const char* page, uint32_t page_size, SoaNode* out);

/// Encode a node onto a page image. CHECKs that it fits.
void WriteNode(const Node& node, char* page, uint32_t page_size);

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_NODE_H_
