#include "rtree/join.h"

#include <bit>
#include <vector>

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

/// The number of set bits among the first `count` of `mask`.
size_t CountSetBits(const uint64_t* mask, size_t count) {
  size_t n = 0;
  for (size_t w = 0; w < simd::MaskWords(count); ++w) {
    n += static_cast<size_t>(std::popcount(mask[w]));
  }
  return n;
}

/// `*out` = the entries of `node` whose bit is set in `mask`, in entry
/// order, on the same level.
void Compact(const SoaNode& node, const uint64_t* mask, SoaNode* out) {
  const size_t n = CountSetBits(mask, node.count());
  out->level = node.level;
  out->xmin.resize(n);
  out->ymin.resize(n);
  out->xmax.resize(n);
  out->ymax.resize(n);
  out->payloads.resize(n);
  size_t k = 0;
  simd::ForEachSetBit(mask, node.count(), [&](size_t i) {
    out->xmin[k] = node.xmin[i];
    out->ymin[k] = node.ymin[i];
    out->xmax[k] = node.xmax[i];
    out->ymax[k] = node.ymax[i];
    out->payloads[k] = node.payloads[i];
    ++k;
  });
}

struct JoinSearch : SearchPolicy<PairFrame> {
  using Stats = JoinStats;
  static constexpr size_t kSides = 2;
  static constexpr uint64_t JoinStats::*kTested = &JoinStats::pairs_tested;
  // Pair frames are pushed left ascending, then right ascending, so the
  // frames under one node pair keep returning to a few nodes per side.
  static constexpr size_t kReuseSlots = 8;
  static NodeRef Side(const PairFrame& frame, size_t side) {
    return frame.ref[side];
  }

  template <typename T>
  Status OnNode(const PairFrame& frame, const SoaNode* nodes, T& t) {
    const SoaNode& lnode = nodes[0];
    const SoaNode& rnode = nodes[1];
    if (lnode.level != rnode.level) {
      // Unequal levels: descend the taller side against the whole other
      // node's bound.
      const size_t tall = lnode.level > rnode.level ? 0 : 1;
      const SoaNode& node = nodes[tall];
      const uint64_t* mask =
          t.Mask(intersects, node.rects(), t.NodeMbr(1 - tall));
      t.PushChildren(node, mask, [&](size_t i) {
        PairFrame child = frame;
        child.ref[tall] = NodeRef::ChildOf(node, i);
        return child;
      });
      return Status::OK();
    }
    // Equal levels: an intersecting pair lies inside the region both
    // nodes cover (DESIGN.md §13). The right node is filtered against
    // that region and compacted to its candidates, then the left one
    // unless a single right candidate makes that filter moot. Each
    // candidate of the side with fewer makes one kernel call over the
    // other side, and the pairs go out left ascending, then right
    // ascending: the nested-loop order.
    const geom::Rect common =
        geom::IntersectionOf(t.NodeMbr(0), t.NodeMbr(1));
    Compact(rnode, t.Mask(intersects, rnode.rects(), common), &right);
    const size_t r = right.count();
    if (r == 0) return Status::OK();
    if (r == 1) {
      t.PushInOrder([&] { RightWindows(lnode, 0, lnode.count(), t); });
      return Status::OK();
    }
    // The last Mask call of this visit, so lmask stays valid below.
    const uint64_t* lmask = t.Mask(intersects, lnode.rects(), common);
    const size_t l = CountSetBits(lmask, lnode.count());
    t.PushInOrder([&] {
      if (r < l) {
        // Over the lanes from the first left candidate to the last.
        size_t lo = 0;
        size_t hi = lnode.count();
        while (((lmask[lo / 64] >> (lo % 64)) & 1) == 0) ++lo;
        while (((lmask[(hi - 1) / 64] >> ((hi - 1) % 64)) & 1) == 0) --hi;
        RightWindows(lnode, lo, hi, t);
        return;
      }
      row.resize(simd::MaskWords(r));
      simd::ForEachSetBit(lmask, lnode.count(), [&](size_t i) {
        intersects(right.rects(), lnode.RectAt(i), row.data());
        t.Tested(r);
        simd::ForEachSetBit(row.data(), r,
                            [&](size_t j) { Emit(lnode, i, j, t); });
      });
    });
    return Status::OK();
  }

  /// Each right candidate as a window over the left lanes [lo, hi), the
  /// hits gathered into one row bitmap per left entry and emitted in
  /// nested-loop order. Exact without the left filter: a left entry
  /// that meets a right candidate lies in the region both nodes cover.
  template <typename T>
  void RightWindows(const SoaNode& lnode, size_t lo, size_t hi, T& t) {
    const simd::RectSoa all = lnode.rects();
    const size_t n = hi - lo;
    const simd::RectSoa lanes{all.xmin + lo, all.ymin + lo, all.xmax + lo,
                              all.ymax + lo, n};
    const size_t r = right.count();
    const size_t words = simd::MaskWords(r);
    rows.assign(n * words, 0);
    hit_left.assign(simd::MaskWords(n), 0);
    column.resize(simd::MaskWords(n));
    for (size_t j = 0; j < r; ++j) {
      intersects(lanes, right.RectAt(j), column.data());
      t.Tested(n);
      for (size_t w = 0; w < column.size(); ++w) hit_left[w] |= column[w];
      simd::ForEachSetBit(column.data(), n, [&](size_t i) {
        rows[i * words + j / 64] |= uint64_t{1} << (j % 64);
      });
    }
    simd::ForEachSetBit(hit_left.data(), n, [&](size_t i) {
      simd::ForEachSetBit(rows.data() + i * words, r,
                          [&](size_t j) { Emit(lnode, lo + i, j, t); });
    });
  }

  /// Left entry `i` with right candidate `j`: a result at the leaves, a
  /// child pair frame above them.
  template <typename T>
  void Emit(const SoaNode& lnode, size_t i, size_t j, T& t) {
    if (lnode.is_leaf()) {
      ++t.stats()->results;
      (*callback)(LeafHit{lnode.RectAt(i), lnode.RidAt(i)},
                  LeafHit{right.RectAt(j), right.RidAt(j)});
    } else {
      t.Push(PairFrame{
          {NodeRef::ChildOf(lnode, i), NodeRef::ChildOf(right, j)}});
    }
  }

  const JoinCallback* callback;
  decltype(simd::RectKernels::intersects) intersects =
      simd::ActiveKernels().intersects;
  // The right candidates of an equal-level pair and the kernel verdicts,
  // reused for every pair so the steady state does not allocate.
  SoaNode right = {};
  std::vector<uint64_t> row = {};       // one left entry's verdicts
  std::vector<uint64_t> column = {};    // one right candidate's verdicts
  std::vector<uint64_t> rows = {};      // row bitmaps, one per left lane
  std::vector<uint64_t> hit_left = {};  // left lanes with any hit
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
