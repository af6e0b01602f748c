#include "rtree/knn.h"

#include "geom/distance.h"
#include "rtree/traverse.h"

namespace pictdb::rtree {

namespace {

/// Priority-queue element: an unexpanded node, an MBR-level candidate
/// entry, or a refined (exact-distance) entry; keyed by distance.
struct QueueItem {
  double distance;
  enum class Kind { kNode, kEntry, kRefined } kind = Kind::kNode;
  NodeRef node;  // kNode
  LeafHit hit;   // kEntry / kRefined

  friend bool operator>(const QueueItem& a, const QueueItem& b) {
    return a.distance > b.distance;
  }
};

/// Best-first search on MINDIST. Without a resolver, candidate entries
/// are final when they pop; with one, they are re-queued under their
/// exact distance (>= MINDIST, so the order stays correct) and final
/// when they pop again.
struct NearestSearch : SearchPolicy<QueueItem, /*kBestFirst=*/true> {
  static NodeRef Side(const QueueItem& item, size_t) { return item.node; }
  static bool IsNode(const QueueItem& item) {
    return item.kind == QueueItem::Kind::kNode;
  }
  bool Done() const { return result->size() == k; }

  template <typename T>
  Status OnItem(const QueueItem& item, T& t) {
    if (item.kind == QueueItem::Kind::kEntry && resolver) {
      PICTDB_ASSIGN_OR_RETURN(const geom::Geometry g, resolver(item.hit.rid));
      t.Push(QueueItem{geom::DistanceTo(g, query), QueueItem::Kind::kRefined,
                       {}, item.hit});
      return Status::OK();
    }
    // Nothing still queued can beat it: this is the next neighbour.
    result->push_back(Neighbor{item.hit, item.distance});
    return Status::OK();
  }

  template <typename T>
  Status OnNode(const QueueItem&, const SoaNode* nodes, T& t) {
    const SoaNode& node = nodes[0];
    t.Tested(node.count());
    for (size_t i = 0; i < node.count(); ++i) {
      const geom::Rect mbr = node.RectAt(i);
      const double d = geom::MinDistance(mbr, query);
      if (node.is_leaf()) {
        t.Push(QueueItem{d, QueueItem::Kind::kEntry, {},
                         LeafHit{mbr, node.RidAt(i)}});
      } else {
        t.Push(QueueItem{d, QueueItem::Kind::kNode, NodeRef::ChildOf(node, i),
                         {}});
      }
    }
    return Status::OK();
  }

  geom::Point query;
  size_t k;
  const GeometryResolver& resolver;  // empty: MBR distances are final
  std::vector<Neighbor>* result;
};

}  // namespace

StatusOr<std::vector<Neighbor>> SearchNearest(const RTree& tree,
                                              const geom::Point& query,
                                              size_t k, SearchStats* stats,
                                              const SearchOptions& options) {
  return SearchNearestExact(tree, query, k, GeometryResolver(), stats,
                            options);
}

StatusOr<std::vector<Neighbor>> SearchNearestExact(
    const RTree& tree, const geom::Point& query, size_t k,
    const GeometryResolver& resolver, SearchStats* stats,
    const SearchOptions& options) {
  std::vector<Neighbor> result;
  if (k == 0 || tree.Size() == 0) return result;
  NearestSearch policy{{}, query, k, resolver, &result};
  using Engine = Traversal<NearestSearch>;
  Engine t({&tree},
           QueueItem{0.0, QueueItem::Kind::kNode, Engine::Root(tree), {}},
           options, stats);
  PICTDB_RETURN_IF_ERROR(t.Run(policy));
  t.stats()->results = result.size();
  return result;
}

}  // namespace pictdb::rtree
