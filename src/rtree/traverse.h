#ifndef PICTDB_RTREE_TRAVERSE_H_
#define PICTDB_RTREE_TRAVERSE_H_

#include <algorithm>
#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "simd/dispatch.h"

namespace pictdb::rtree {

// The one traversal behind every R-tree read path (DESIGN.md §13): the
// paper's direct search (§3.1) — prune at interior nodes, qualify at the
// leaves — run iteratively over a frontier of frames. The engine owns
// what every path shares: the root/height snapshot, the deadline/cancel
// poll, the latched node load, the level check, degraded-mode skipping,
// the visit and test counters, and the decode and mask scratch. A policy
// supplies the frame and frontier types and what happens at a node.

/// A node still to visit: its page and the level its parent's entry
/// implies (the root's comes from the tree height).
struct NodeRef {
  storage::PageId id = storage::kInvalidPageId;
  uint16_t level = 0;

  /// Child `i` of the interior node `node`.
  static NodeRef ChildOf(const SoaNode& node, size_t i) {
    return NodeRef{node.ChildAt(i), static_cast<uint16_t>(node.level - 1)};
  }
};

/// The frames still to visit: a stack (depth-first) or a min-heap on
/// `operator>` (best-first). The heap runs the same std::push_heap /
/// std::pop_heap sequence as std::priority_queue, so equal keys pop in
/// an order fixed by the push and pop history alone.
template <typename Frame, bool kBestFirst = false>
class Frontier {
 public:
  bool empty() const { return frames_.empty(); }
  size_t size() const { return frames_.size(); }
  void Push(Frame frame) {
    frames_.push_back(std::move(frame));
    if constexpr (kBestFirst) {
      std::push_heap(frames_.begin(), frames_.end(), std::greater<Frame>());
    }
  }
  Frame Pop() {
    if constexpr (kBestFirst) {
      std::pop_heap(frames_.begin(), frames_.end(), std::greater<Frame>());
    }
    Frame frame = std::move(frames_.back());
    frames_.pop_back();
    return frame;
  }
  /// On a stack, make the frames pushed since `mark` pop in the order
  /// they were pushed: children queued in entry order are then visited
  /// in entry order, as Guttman's recursive Search visits them.
  void KeepPushOrder(size_t mark) {
    if constexpr (!kBestFirst) {
      std::reverse(frames_.begin() + static_cast<ptrdiff_t>(mark),
                   frames_.end());
    }
  }

 private:
  std::vector<Frame> frames_;
};

/// Policy defaults: one tree, frames that are plain NodeRefs on a stack,
/// SearchStats accounting, every frame a node, no early stop. A policy
/// derives from this and defines
///   template <typename T> Status OnNode(const Frame&, const SoaNode*, T&)
/// which receives one decoded node per side and the engine, through
/// which it tests entries (Mask), queues frames (Push, PushChildren) and
/// counts results (stats()).
///
/// A policy that revisits nodes (the join, whose consecutive pair frames
/// share a side) sets kReuseSlots: each side then keeps its current node
/// and up to kReuseSlots earlier decodes, keyed by page, with each one's
/// bound (NodeMbr), computed once per decode. A repeated page skips both
/// the fetch and the decode; the level check and the visit count still
/// run. A side that decodes an interior node drops its parked nodes, so
/// no node is combined with a newer decode of an ancestor: each node is
/// read after its parent, as in a single-tree search.
///
/// A checker's policy sets kReportFaults: the walk then reports and
/// continues. A node that fails to load goes to
///   Status OnUnreadable(const Frame&, const Status& loaded)
/// and one whose stored level disagrees with its parent's goes to
///   Status OnLevelMismatch(const Frame&, const SoaNode& node)
/// instead of failing the traversal. Neither passes through
/// ShouldDegrade, and nothing is quarantined.
template <typename FrameT, bool kBestFirst = false>
struct SearchPolicy {
  using Frame = FrameT;
  using Frontier = rtree::Frontier<FrameT, kBestFirst>;
  using Stats = SearchStats;
  static constexpr size_t kSides = 1;
  static constexpr bool kReportFaults = false;
  static constexpr size_t kReuseSlots = 0;
  static constexpr uint64_t SearchStats::*kTested =
      &SearchStats::entries_tested;

  static NodeRef Side(const NodeRef& frame, size_t) { return frame; }
  /// Frames that are not nodes (kNN's queued entries) go to OnItem.
  static bool IsNode(const Frame&) { return true; }
  template <typename T>
  Status OnItem(const Frame&, T&) {
    return Status::OK();
  }
  /// A frame whose node was unreadable and skipped in degraded mode.
  void OnSkip(const Frame&) {}
  bool Done() const { return false; }
};

template <typename Policy>
class Traversal {
 public:
  using Frame = typename Policy::Frame;
  using Stats = typename Policy::Stats;
  static constexpr size_t kSides = Policy::kSides;
  static constexpr size_t kReuseSlots = Policy::kReuseSlots;

  /// The root of `tree`, page and level from ONE load of the packed
  /// root/height word, so both describe the same tree shape even while
  /// a writer publishes a new root.
  static NodeRef Root(const RTree& tree) {
    const uint64_t rh = tree.root_height_.load();
    return NodeRef{static_cast<storage::PageId>(rh & 0xFFFFFFFFu),
                   static_cast<uint16_t>((rh >> 32) - 1)};
  }

  /// Starts from `first`; counters go to `*stats` (or to internal
  /// storage when null).
  Traversal(std::array<const RTree*, kSides> trees, Frame first,
            const SearchOptions& options, Stats* stats)
      : trees_(trees),
        options_(options),
        stats_(stats != nullptr ? stats : &own_stats_) {
    frontier_.Push(std::move(first));
  }
  Traversal(const Traversal&) = delete;
  Traversal& operator=(const Traversal&) = delete;

  bool Exhausted(const Policy& policy) const {
    return frontier_.empty() || policy.Done();
  }

  Status Run(Policy& policy) {
    while (!Exhausted(policy)) PICTDB_RETURN_IF_ERROR(Step(policy));
    return Status::OK();
  }

  /// Pop one frame and process it. Requires !Exhausted(policy).
  Status Step(Policy& policy) {
    Frame frame = frontier_.Pop();
    PICTDB_RETURN_IF_ERROR(options_.CheckRunnable());
    if (!Policy::IsNode(frame)) return policy.OnItem(frame, *this);
    for (size_t side = 0; side < kSides; ++side) {
      const NodeRef ref = Policy::Side(frame, side);
      Status loaded = Load(side, ref.id);
      if constexpr (Policy::kReportFaults) {
        if (!loaded.ok()) return policy.OnUnreadable(frame, loaded);
        if (nodes_[side].level != ref.level) {
          return policy.OnLevelMismatch(frame, nodes_[side]);
        }
        continue;
      }
      if (loaded.ok() && nodes_[side].level != ref.level) {
        // A node at the wrong depth (e.g. a child pointer back to an
        // ancestor) would otherwise send the descent round in a cycle.
        loaded = Status::Corruption("R-tree node level disagrees with parent");
      }
      if (!loaded.ok()) {
        if (!options_.ShouldDegrade(loaded)) return loaded;
        // Quarantine the bad page and carry on with the rest of the
        // tree: a partial answer flagged degraded beats no answer.
        if (options_.quarantine != nullptr) options_.quarantine->Add(ref.id);
        ++stats_->skipped_subtrees;
        stats_->degraded = true;
        policy.OnSkip(frame);
        return Status::OK();
      }
    }
    stats_->nodes_visited += kSides;
    return policy.OnNode(frame, nodes_.data(), *this);
  }

  Stats* stats() { return stats_; }

  /// The bound of side `side`'s current node (kReuseSlots policies).
  const geom::Rect& NodeMbr(size_t side) const {
    static_assert(kReuseSlots > 0);
    return reuse_[side].mbr;
  }

  /// Count `n` entries (or entry pairs) as tested.
  void Tested(uint64_t n) { stats_->*Policy::kTested += n; }

  /// Run `test(rects, shape..., mask)` into the mask scratch and count
  /// the rects as tested. The mask stays valid until the next Mask.
  template <typename Test, typename... Shape>
  const uint64_t* Mask(const Test& test, const simd::RectSoa& rects,
                       const Shape&... shape) {
    mask_.resize(simd::MaskWords(rects.count));
    test(rects, shape..., mask_.data());
    Tested(rects.count);
    return mask_.data();
  }

  void Push(Frame frame) { frontier_.Push(std::move(frame)); }

  /// Run `push_all()`, which pushes frames in entry order; a depth-first
  /// frontier then visits them in that order.
  template <typename PushAll>
  void PushInOrder(PushAll&& push_all) {
    const size_t mark = frontier_.size();
    push_all();
    frontier_.KeepPushOrder(mark);
  }

  /// Queue `make(i)` for every set bit of `mask`, in entry order.
  template <typename MakeFrame>
  void PushChildren(const SoaNode& node, const uint64_t* mask,
                    MakeFrame&& make) {
    PushInOrder([&] {
      simd::ForEachSetBit(mask, node.count(),
                          [&](size_t i) { frontier_.Push(make(i)); });
    });
  }

 private:
  /// A decoded node put aside, the page it came from and its bound.
  struct Parked {
    storage::PageId id = storage::kInvalidPageId;
    SoaNode node;
    geom::Rect mbr;
  };
  /// One side's reuse state: the page and bound of nodes_[side], and
  /// the parked nodes, most recently used first.
  struct ReuseSet {
    storage::PageId id = storage::kInvalidPageId;
    geom::Rect mbr;
    std::array<Parked, kReuseSlots> parked;
  };

  /// Whether a place marked `held` holds page `id`. kInvalidPageId
  /// marks an empty place, so a (corrupt) child pointer holding it is
  /// never a hit and goes to the load, which fails.
  static bool Holds(storage::PageId held, storage::PageId id) {
    return held == id && id != storage::kInvalidPageId;
  }

  /// Make nodes_[side] the node on page `id`.
  Status Load(size_t side, storage::PageId id) {
    if constexpr (kReuseSlots == 0) {
      return trees_[side]->LoadNodeSoa(id, &nodes_[side]);
    } else {
      ReuseSet& set = reuse_[side];
      if (Holds(set.id, id)) return Status::OK();
      // Park the current node in front and shift the parked ones back
      // until the slot holding `id` (a hit) or the last, least recently
      // used one (a miss), whose node becomes current. Nodes only swap,
      // so a miss decodes into storage that is already allocated.
      size_t last = 0;
      while (last + 1 < kReuseSlots && !Holds(set.parked[last].id, id)) {
        ++last;
      }
      for (size_t k = 0; k <= last; ++k) {
        Parked& slot = set.parked[k];
        std::swap(set.id, slot.id);
        std::swap(nodes_[side], slot.node);
        std::swap(set.mbr, slot.mbr);
      }
      if (Holds(set.id, id)) return Status::OK();
      set.id = storage::kInvalidPageId;
      PICTDB_RETURN_IF_ERROR(trees_[side]->LoadNodeSoa(id, &nodes_[side]));
      if (!nodes_[side].is_leaf()) {
        for (Parked& slot : set.parked) slot.id = storage::kInvalidPageId;
      }
      set.id = id;
      set.mbr = nodes_[side].Mbr();
      return Status::OK();
    }
  }

  std::array<const RTree*, kSides> trees_;
  SearchOptions options_;
  Stats own_stats_;
  Stats* stats_;
  typename Policy::Frontier frontier_;
  std::array<SoaNode, kSides> nodes_;  // reused for every decode
  std::array<ReuseSet, kReuseSlots == 0 ? 0 : kSides> reuse_;
  std::vector<uint64_t> mask_;
};

/// A per-lane test against a query shape, in the kernel signature: sets
/// bit i of the mask iff rect i passes.
template <typename Shape>
using LaneTest = void (*)(const simd::RectSoa&, const Shape&, uint64_t*);

/// Every entry qualifies, whatever the shape.
inline void MatchAll(const simd::RectSoa& rects, const geom::Rect&,
                     uint64_t* mask) {
  const size_t words = simd::MaskWords(rects.count);
  std::fill(mask, mask + words, ~uint64_t{0});
  if (rects.count % 64 != 0) {
    mask[words - 1] = (uint64_t{1} << (rects.count % 64)) - 1;
  }
}

/// Single-shape search: descend into interior entries passing
/// `interior`, report leaf entries passing `leaf`, both in entry order.
template <typename Shape>
struct ShapeSearch : SearchPolicy<NodeRef> {
  template <typename T>
  Status OnNode(const NodeRef&, const SoaNode* nodes, T& t) {
    const SoaNode& node = nodes[0];
    if (!node.is_leaf()) {
      const uint64_t* mask = t.Mask(interior, node.rects(), shape);
      t.PushChildren(node, mask,
                     [&](size_t i) { return NodeRef::ChildOf(node, i); });
      return Status::OK();
    }
    const uint64_t* mask = t.Mask(leaf, node.rects(), shape);
    simd::ForEachSetBit(mask, node.count(), [&](size_t i) {
      out->push_back(LeafHit{node.RectAt(i), node.RidAt(i)});
      ++t.stats()->results;
    });
    return Status::OK();
  }

  LaneTest<Shape> interior;
  LaneTest<Shape> leaf;
  Shape shape;
  std::vector<LeafHit>* out;
};

/// Whole-tree walk: `visit(ref, node)` sees every reachable node down to
/// level `floor`. Children are pushed in entry order without reordering,
/// so they are visited last entry first.
template <typename Visit>
struct Walk : SearchPolicy<NodeRef> {
  Walk(Visit v, uint16_t floor_level = 0) : visit(v), floor(floor_level) {}

  template <typename T>
  Status OnNode(const NodeRef& ref, const SoaNode* nodes, T& t) {
    const SoaNode& node = nodes[0];
    PICTDB_RETURN_IF_ERROR(visit(ref, node));
    if (node.level > floor) {
      for (size_t i = 0; i < node.count(); ++i) {
        t.Push(NodeRef::ChildOf(node, i));
      }
    }
    return Status::OK();
  }

  Visit visit;
  uint16_t floor;
};

/// Run a single-tree policy over `tree` from its root.
template <typename Policy>
Status TraverseTree(const RTree& tree, Policy& policy,
                    const SearchOptions& options = {},
                    SearchStats* stats = nullptr) {
  Traversal<Policy> t({&tree}, Traversal<Policy>::Root(tree), options,
                      stats);
  return t.Run(policy);
}

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_TRAVERSE_H_
