#ifndef PICTDB_RTREE_KNN_H_
#define PICTDB_RTREE_KNN_H_

#include <vector>

#include "common/status_or.h"
#include "geom/geometry.h"
#include "rtree/rtree.h"

namespace pictdb::rtree {

/// A k-nearest-neighbour result: leaf entry plus its MBR distance to the
/// query point.
struct Neighbor {
  LeafHit hit;
  double distance = 0.0;
};

/// Branch-and-bound nearest-neighbour search over the R-tree — the
/// natural extension of the paper's direct search, published by the same
/// first author a decade later (Roussopoulos, Kelley & Vincent 1995).
/// Implemented as a best-first traversal with a priority queue ordered
/// by MINDIST: nodes are expanded in increasing distance order and the
/// search stops once the k-th best candidate is closer than the nearest
/// unexpanded node. Distances are to leaf MBRs (exact for points, a
/// lower bound for extended objects; callers refine if needed).
StatusOr<std::vector<Neighbor>> SearchNearest(
    const RTree& tree, const geom::Point& query, size_t k,
    SearchStats* stats = nullptr, const SearchOptions& options = {});

/// Fetches the exact geometry behind a leaf entry (e.g. from the
/// relation tuple the Rid points to).
using GeometryResolver =
    std::function<StatusOr<geom::Geometry>(const storage::Rid&)>;

/// Exact k-NN over extended objects: best-first on MBR MINDIST with
/// lazy refinement — candidate entries are re-queued under their exact
/// distance (computed via `resolver` + geom::DistanceTo) and only
/// finalized when they pop ahead of every unexpanded node and
/// unrefined candidate. Resolves only the geometries it must. With an
/// empty `resolver` this is SearchNearest.
StatusOr<std::vector<Neighbor>> SearchNearestExact(
    const RTree& tree, const geom::Point& query, size_t k,
    const GeometryResolver& resolver, SearchStats* stats = nullptr,
    const SearchOptions& options = {});

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_KNN_H_
