#include "quadtree/quadtree.h"

#include <algorithm>

#include "common/logging.h"

namespace pictdb::quadtree {

using geom::Point;
using geom::Rect;

QuadTree::QuadTree(const Rect& frame, int max_depth, size_t split_threshold)
    : max_depth_(max_depth), split_threshold_(split_threshold) {
  PICTDB_CHECK(!frame.IsEmpty());
  PICTDB_CHECK(max_depth_ >= 1 && split_threshold_ >= 1);
  root_.bounds = frame;
  root_.depth = 0;
}

Rect QuadTree::ChildBounds(const Cell& cell, int quadrant) {
  const Point c = cell.bounds.Center();
  switch (quadrant) {
    case 0:  // NW
      return Rect(cell.bounds.lo.x, c.y, c.x, cell.bounds.hi.y);
    case 1:  // NE
      return Rect(c.x, c.y, cell.bounds.hi.x, cell.bounds.hi.y);
    case 2:  // SW
      return Rect(cell.bounds.lo.x, cell.bounds.lo.y, c.x, c.y);
    default:  // SE
      return Rect(c.x, cell.bounds.lo.y, cell.bounds.hi.x, c.y);
  }
}

int QuadTree::QuadrantOf(const Cell& cell, const Rect& mbr) {
  for (int q = 0; q < 4; ++q) {
    if (ChildBounds(cell, q).Contains(mbr)) return q;
  }
  return -1;  // straddles the center lines: pinned here
}

void QuadTree::SplitCell(Cell* cell) {
  cell->split = true;
  // Push down every entry that fits wholly inside a child quadrant.
  std::vector<QuadEntry> keep;
  for (const QuadEntry& e : cell->entries) {
    const int q = QuadrantOf(*cell, e.mbr);
    if (q < 0) {
      keep.push_back(e);
      continue;
    }
    if (cell->children[q] == nullptr) {
      cell->children[q] = std::make_unique<Cell>();
      cell->children[q]->bounds = ChildBounds(*cell, q);
      cell->children[q]->depth = cell->depth + 1;
    }
    InsertInto(cell->children[q].get(), e);
  }
  cell->entries = std::move(keep);
}

void QuadTree::InsertInto(Cell* cell, const QuadEntry& entry) {
  for (;;) {
    if (!cell->split) {
      if (cell->entries.size() < split_threshold_ ||
          cell->depth >= max_depth_) {
        cell->entries.push_back(entry);
        return;
      }
      SplitCell(cell);
      // fall through: cell is now split
    }
    const int q = QuadrantOf(*cell, entry.mbr);
    if (q < 0) {
      cell->entries.push_back(entry);
      return;
    }
    if (cell->children[q] == nullptr) {
      cell->children[q] = std::make_unique<Cell>();
      cell->children[q]->bounds = ChildBounds(*cell, q);
      cell->children[q]->depth = cell->depth + 1;
    }
    cell = cell->children[q].get();
  }
}

Status QuadTree::Insert(const Rect& mbr, const storage::Rid& rid) {
  if (mbr.IsEmpty()) {
    return Status::InvalidArgument("cannot index an empty rectangle");
  }
  if (!root_.bounds.Contains(mbr)) {
    return Status::InvalidArgument("object outside the quad-tree frame");
  }
  InsertInto(&root_, QuadEntry{mbr, rid});
  ++size_;
  return Status::OK();
}

Status QuadTree::Delete(const Rect& mbr, const storage::Rid& rid) {
  Cell* cell = &root_;
  while (cell != nullptr) {
    for (size_t i = 0; i < cell->entries.size(); ++i) {
      if (cell->entries[i].rid == rid && cell->entries[i].mbr == mbr) {
        cell->entries.erase(cell->entries.begin() + i);
        --size_;
        return Status::OK();
      }
    }
    const int q = QuadrantOf(*cell, mbr);
    cell = q >= 0 && cell->children[q] != nullptr
               ? cell->children[q].get()
               : nullptr;
  }
  return Status::NotFound("entry not in quad-tree");
}

void QuadTree::SearchCell(const Cell& cell, const Rect& window,
                          std::vector<QuadEntry>* out,
                          QuadStats* stats) const {
  if (stats != nullptr) ++stats->cells_visited;
  for (const QuadEntry& e : cell.entries) {
    if (stats != nullptr) ++stats->entries_tested;
    if (e.mbr.Intersects(window)) {
      out->push_back(e);
      if (stats != nullptr) ++stats->results;
    }
  }
  for (int q = 0; q < 4; ++q) {
    if (cell.children[q] != nullptr &&
        cell.children[q]->bounds.Intersects(window)) {
      SearchCell(*cell.children[q], window, out, stats);
    }
  }
}

std::vector<QuadEntry> QuadTree::SearchIntersects(const Rect& window,
                                                  QuadStats* stats) const {
  std::vector<QuadEntry> out;
  if (root_.bounds.Intersects(window)) {
    SearchCell(root_, window, &out, stats);
  }
  return out;
}

std::vector<QuadEntry> QuadTree::SearchPoint(const Point& p,
                                             QuadStats* stats) const {
  return SearchIntersects(Rect::FromPoint(p), stats);
}

size_t QuadTree::CountCells(const Cell& cell) {
  size_t n = 1;
  for (int q = 0; q < 4; ++q) {
    if (cell.children[q] != nullptr) n += CountCells(*cell.children[q]);
  }
  return n;
}

size_t QuadTree::CellCount() const { return CountCells(root_); }

int QuadTree::MaxDepth(const Cell& cell) {
  int deepest = cell.depth;
  for (int q = 0; q < 4; ++q) {
    if (cell.children[q] != nullptr) {
      deepest = std::max(deepest, MaxDepth(*cell.children[q]));
    }
  }
  return deepest;
}

int QuadTree::DepthInUse() const { return MaxDepth(root_); }

}  // namespace pictdb::quadtree
