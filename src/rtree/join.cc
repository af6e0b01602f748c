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

/// `*out` = the entries of `node` whose bit is set in `mask`, in entry
/// order, on the same level.
void Compact(const SoaNode& node, const uint64_t* mask, SoaNode* out) {
  out->level = node.level;
  out->xmin.clear();
  out->ymin.clear();
  out->xmax.clear();
  out->ymax.clear();
  out->payloads.clear();
  simd::ForEachSetBit(mask, node.count(), [&](size_t i) {
    out->xmin.push_back(node.xmin[i]);
    out->ymin.push_back(node.ymin[i]);
    out->xmax.push_back(node.xmax[i]);
    out->ymax.push_back(node.ymax[i]);
    out->payloads.push_back(node.payloads[i]);
  });
}

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
    // Equal levels: an intersecting pair lies inside the region both
    // nodes cover (DESIGN.md §13). Both nodes are filtered against that
    // region, the right one compacted to its candidates (the left is
    // skipped when none survive), and only candidate pairs are tested.
    // Ascending i, then ascending j, keeps the nested-loop pair order.
    const geom::Rect common = geom::IntersectionOf(lnode.Mbr(), rnode.Mbr());
    Compact(rnode, t.Mask(intersects, rnode.rects(), common), &right);
    if (right.count() == 0) return Status::OK();
    // The last Mask call of this visit, so lmask stays valid below.
    const uint64_t* lmask = t.Mask(intersects, lnode.rects(), common);
    const simd::RectSoa r = right.rects();
    t.PushInOrder([&] {
      simd::ForEachSetBit(lmask, lnode.count(), [&](size_t i) {
        const geom::Rect le = lnode.RectAt(i);
        t.Tested(r.count);
        for (size_t j = 0; j < r.count; ++j) {
          // Both entries intersect `common`, so neither is empty or NaN
          // and Rect::Intersects comes down to four comparisons, taken
          // without branches: the kernel costs more per call than a
          // few candidates do, and short-circuit branches mispredict.
          const bool hit = (le.lo.x <= r.xmax[j]) & (r.xmin[j] <= le.hi.x) &
                           (le.lo.y <= r.ymax[j]) & (r.ymin[j] <= le.hi.y);
          if (!hit) continue;
          if (lnode.is_leaf()) {
            ++t.stats()->results;
            (*callback)(LeafHit{le, lnode.RidAt(i)},
                        LeafHit{right.RectAt(j), right.RidAt(j)});
          } else {
            t.Push(PairFrame{{NodeRef::ChildOf(lnode, i),
                              NodeRef::ChildOf(right, j)}});
          }
        }
      });
    });
    return Status::OK();
  }

  const JoinCallback* callback;
  decltype(simd::RectKernels::intersects) intersects =
      simd::ActiveKernels().intersects;
  // The right candidates of an equal-level pair, reused for every pair
  // so the steady state does not allocate.
  SoaNode right = {};
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
