#include "rtree/join.h"

#include "rtree/traverse.h"

namespace pictdb::rtree {

namespace {

/// The two-tree descent over pair frames: one node of each tree whose
/// bounds intersect. Pairs pop in the order the recursive synchronized
/// traversal would visit them, so the (left, right) callback order is
/// that of a nested entry-order loop.
struct PairFrame {
  NodeRef ref[2];
};

struct JoinSearch : SearchPolicy<PairFrame> {
  using Stats = JoinStats;
  static constexpr size_t kSides = 2;
  static constexpr uint64_t JoinStats::*kTested = &JoinStats::pairs_tested;
  static NodeRef Side(const PairFrame& frame, size_t side) {
    return frame.ref[side];
  }

  template <typename T>
  Status OnNode(const PairFrame& frame, const SoaNode* nodes, T& t) {
    const SoaNode& lnode = nodes[0];
    const SoaNode& rnode = nodes[1];
    if (lnode.level != rnode.level) {
      // Unequal levels: descend the taller side against the whole other
      // node (its MBR hoisted — one computation per visit).
      const size_t tall = lnode.level > rnode.level ? 0 : 1;
      const SoaNode& node = nodes[tall];
      const geom::Rect other = nodes[1 - tall].Mbr();
      const uint64_t* mask = t.Mask(intersects, node.rects(), other);
      t.PushChildren(node, mask, [&](size_t i) {
        PairFrame child = frame;
        child.ref[tall] = NodeRef::ChildOf(node, i);
        return child;
      });
      return Status::OK();
    }
    // Equal levels: one kernel call tests every right entry against a
    // left entry; ascending bit order keeps the nested-loop pair order.
    t.PushInOrder([&] {
      for (size_t i = 0; i < lnode.count(); ++i) {
        const geom::Rect le = lnode.RectAt(i);
        const uint64_t* mask = t.Mask(intersects, rnode.rects(), le);
        simd::ForEachSetBit(mask, rnode.count(), [&](size_t j) {
          if (lnode.is_leaf()) {
            ++t.stats()->results;
            (*callback)(LeafHit{le, lnode.RidAt(i)},
                        LeafHit{rnode.RectAt(j), rnode.RidAt(j)});
          } else {
            t.Push(PairFrame{{NodeRef::ChildOf(lnode, i),
                              NodeRef::ChildOf(rnode, j)}});
          }
        });
      }
    });
    return Status::OK();
  }

  const JoinCallback* callback;
  decltype(simd::RectKernels::intersects) intersects =
      simd::ActiveKernels().intersects;
};

}  // namespace

Status SpatialJoin(const RTree& left, const RTree& right,
                   const JoinCallback& callback, JoinStats* stats,
                   const SearchOptions& options) {
  if (left.Size() == 0 || right.Size() == 0) return Status::OK();
  JoinSearch policy{{}, &callback};
  using Engine = Traversal<JoinSearch>;
  Engine t({&left, &right},
           PairFrame{{Engine::Root(left), Engine::Root(right)}}, options,
           stats);
  return t.Run(policy);
}

Status NestedLoopJoin(const RTree& left, const RTree& right,
                      const JoinCallback& callback, JoinStats* stats) {
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> lhits,
                          left.CollectAllEntries());
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> rhits,
                          right.CollectAllEntries());
  for (const LeafHit& lh : lhits) {
    for (const LeafHit& rh : rhits) {
      if (stats != nullptr) ++stats->pairs_tested;
      if (lh.mbr.Intersects(rh.mbr)) {
        if (stats != nullptr) ++stats->results;
        callback(lh, rh);
      }
    }
  }
  return Status::OK();
}

}  // namespace pictdb::rtree
