#ifndef PICTDB_BENCH_E2E_GRID_ORACLE_H_
#define PICTDB_BENCH_E2E_GRID_ORACLE_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "storage/heap_file.h"

namespace pictdb::bench {

/// Rid of the i-th base object. The page id is i + 1 so that no base rid
/// is {0, 0}; writer-inserted objects use slot 1 and never collide.
storage::Rid BaseRid(size_t i);

/// Order-independent fingerprint of a hit set: the hit count plus the
/// wrapping sum of a 64-bit mix of each hit's rid payload and MBR bits.
/// Comparing digests checks an answer in O(hits) without sorting it.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const storage::Rid& rid, const geom::Rect& mbr);
  friend bool operator==(const Digest&, const Digest&) = default;

  /// Digest of a hit list: rtree::LeafHit and net::WireHit alike.
  template <typename Hit>
  static Digest Of(const std::vector<Hit>& hits) {
    Digest d;
    for (const Hit& hit : hits) {
      d.Add(storage::Rid{hit.rid.page_id, hit.rid.slot}, hit.mbr);
    }
    return d;
  }
};

/// Reference engine for uniform point data: a uniform grid of about four
/// points per cell. Windows and points are answered by scanning the cells
/// the query covers; kNN by expanding square rings of cells around the
/// query's cell until the k-th candidate is provably final. Distances use
/// geom::MinDistance on the point's degenerate rect, the metric the
/// R-tree's kNN minimizes, so distance lists compare bit for bit. Cheap
/// enough to precompute answers for millions of objects, where the
/// linear-scan check::Oracle would take hours.
class GridOracle {
 public:
  /// Point i carries BaseRid(i). Every point must lie inside `frame`.
  GridOracle(std::vector<geom::Point> points, const geom::Rect& frame);

  const std::vector<geom::Point>& points() const { return points_; }

  /// Calls f(index) for every point intersecting the closed window.
  template <typename F>
  void ForEachIn(const geom::Rect& window, F&& f) const {
    if (window.IsEmpty() || points_.empty()) return;
    const size_t x0 = CellX(window.lo.x), x1 = CellX(window.hi.x);
    const size_t y0 = CellY(window.lo.y), y1 = CellY(window.hi.y);
    for (size_t cy = y0; cy <= y1; ++cy) {
      for (size_t cx = x0; cx <= x1; ++cx) {
        const size_t cell = cy * cells_x_ + cx;
        for (uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
          const uint32_t i = cell_points_[k];
          const geom::Point& p = points_[i];
          if (window.lo.x <= p.x && p.x <= window.hi.x && window.lo.y <= p.y &&
              p.y <= window.hi.y) {
            f(static_cast<size_t>(i));
          }
        }
      }
    }
  }

  Digest WindowDigest(const geom::Rect& window) const;
  /// Sorted rid payloads of the window's hits (for diffs).
  std::vector<uint64_t> WindowPayloads(const geom::Rect& window) const;
  /// Ascending distances of the k nearest points to q.
  std::vector<double> NearestDistances(const geom::Point& q, size_t k) const;
  /// Number of (point, rect) pairs that intersect: the juxtaposition count.
  uint64_t CountPairs(const std::vector<geom::Rect>& rects) const;

 private:
  size_t CellX(double x) const;
  size_t CellY(double y) const;

  std::vector<geom::Point> points_;
  geom::Rect frame_;
  size_t cells_x_ = 1;
  size_t cells_y_ = 1;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  std::vector<uint32_t> cell_start_;   // CSR offsets, cells + 1 entries
  std::vector<uint32_t> cell_points_;  // point indices grouped by cell
};

}  // namespace pictdb::bench

#endif  // PICTDB_BENCH_E2E_GRID_ORACLE_H_
