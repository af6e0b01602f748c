#include "grid_oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "common/logging.h"
#include "rtree/node.h"

namespace pictdb::bench {
namespace {

/// SplitMix64 finalizer.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

storage::Rid BaseRid(size_t i) {
  return storage::Rid{static_cast<storage::PageId>(i + 1), 0};
}

void Digest::Add(const storage::Rid& rid, const geom::Rect& mbr) {
  uint64_t h = Mix(rtree::Entry::PayloadFromRid(rid));
  h = Mix(h ^ std::bit_cast<uint64_t>(mbr.lo.x));
  h = Mix(h ^ std::bit_cast<uint64_t>(mbr.lo.y));
  h = Mix(h ^ std::bit_cast<uint64_t>(mbr.hi.x));
  h = Mix(h ^ std::bit_cast<uint64_t>(mbr.hi.y));
  ++count;
  sum += h;
}

GridOracle::GridOracle(std::vector<geom::Point> points,
                       const geom::Rect& frame)
    : points_(std::move(points)), frame_(frame) {
  PICTDB_CHECK(points_.size() < (uint64_t{1} << 32));
  const size_t side = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(std::sqrt(points_.size() / 4.0))));
  cells_x_ = side;
  cells_y_ = side;
  cell_w_ = frame_.Width() / static_cast<double>(cells_x_);
  cell_h_ = frame_.Height() / static_cast<double>(cells_y_);

  // Counting sort of point indices by cell (CSR layout).
  const size_t cells = cells_x_ * cells_y_;
  std::vector<uint32_t> cell_of(points_.size());
  cell_start_.assign(cells + 1, 0);
  for (size_t i = 0; i < points_.size(); ++i) {
    const geom::Point& p = points_[i];
    PICTDB_CHECK(frame_.Contains(p)) << "point outside the oracle frame";
    cell_of[i] = static_cast<uint32_t>(CellY(p.y) * cells_x_ + CellX(p.x));
    ++cell_start_[cell_of[i] + 1];
  }
  for (size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_points_.resize(points_.size());
  std::vector<uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t i = 0; i < points_.size(); ++i) {
    cell_points_[fill[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
}

size_t GridOracle::CellX(double x) const {
  const double c = std::floor((x - frame_.lo.x) / cell_w_);
  if (!(c > 0)) return 0;
  return std::min(static_cast<size_t>(c), cells_x_ - 1);
}

size_t GridOracle::CellY(double y) const {
  const double c = std::floor((y - frame_.lo.y) / cell_h_);
  if (!(c > 0)) return 0;
  return std::min(static_cast<size_t>(c), cells_y_ - 1);
}

Digest GridOracle::WindowDigest(const geom::Rect& window) const {
  Digest d;
  ForEachIn(window, [&](size_t i) {
    d.Add(BaseRid(i), geom::Rect::FromPoint(points_[i]));
  });
  return d;
}

std::vector<uint64_t> GridOracle::WindowPayloads(
    const geom::Rect& window) const {
  std::vector<uint64_t> out;
  ForEachIn(window, [&](size_t i) {
    out.push_back(rtree::Entry::PayloadFromRid(BaseRid(i)));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> GridOracle::NearestDistances(const geom::Point& q,
                                                 size_t k) const {
  std::priority_queue<double> best;  // max-heap holding the k smallest
  if (k == 0) return {};
  const auto visit = [&](long cx, long cy) {
    if (cx < 0 || cy < 0 || cx >= static_cast<long>(cells_x_) ||
        cy >= static_cast<long>(cells_y_)) {
      return;
    }
    const size_t cell = static_cast<size_t>(cy) * cells_x_ +
                        static_cast<size_t>(cx);
    for (uint32_t j = cell_start_[cell]; j < cell_start_[cell + 1]; ++j) {
      const double d = geom::MinDistance(
          geom::Rect::FromPoint(points_[cell_points_[j]]), q);
      if (best.size() < k) {
        best.push(d);
      } else if (d < best.top()) {
        best.pop();
        best.push(d);
      }
    }
  };
  const long qx = static_cast<long>(CellX(q.x));
  const long qy = static_cast<long>(CellY(q.y));
  const long max_ring = static_cast<long>(std::max(cells_x_, cells_y_));
  const double step = std::min(cell_w_, cell_h_);
  for (long r = 0; r <= max_ring; ++r) {
    if (r == 0) {
      visit(qx, qy);
    } else {
      for (long x = qx - r; x <= qx + r; ++x) {
        visit(x, qy - r);
        visit(x, qy + r);
      }
      for (long y = qy - r + 1; y <= qy + r - 1; ++y) {
        visit(qx - r, y);
        visit(qx + r, y);
      }
    }
    // Every point outside rings 0..r is more than r cells away from q's
    // cell; one cell of slack absorbs rounding in the cell assignment.
    if (best.size() == k && r >= 1 &&
        best.top() <= static_cast<double>(r - 1) * step) {
      break;
    }
  }
  std::vector<double> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

uint64_t GridOracle::CountPairs(const std::vector<geom::Rect>& rects) const {
  uint64_t pairs = 0;
  for (const geom::Rect& r : rects) ForEachIn(r, [&](size_t) { ++pairs; });
  return pairs;
}

}  // namespace pictdb::bench
