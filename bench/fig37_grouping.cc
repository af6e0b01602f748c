// Figure 3.7 reproduction: zero overlap alone is not enough — a grouping
// can be overlap-free yet have "unacceptably high" coverage (3.7a), while
// a spatially-aware grouping of the same objects has both zero overlap
// and low coverage (3.7b). Coverage and overlap must be minimized
// simultaneously, which is what PACK attempts.
//
// Construction: a 2-column × N-row lattice of small boxes. Grouping each
// ROW (one box from each distant column) gives disjoint but very wide
// leaves (3.7a); grouping within COLUMNS gives tight leaves (3.7b).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "geom/measure.h"
#include "pack/pack.h"

namespace {

using pictdb::geom::Rect;
using pictdb::rtree::Entry;

double Coverage(const std::vector<std::vector<Entry>>& groups) {
  double total = 0;
  for (const auto& g : groups) {
    Rect mbr;
    for (const Entry& e : g) mbr.ExpandToInclude(e.mbr);
    total += mbr.Area();
  }
  return total;
}

double Overlap(const std::vector<std::vector<Entry>>& groups) {
  std::vector<Rect> mbrs;
  for (const auto& g : groups) {
    Rect mbr;
    for (const Entry& e : g) mbr.ExpandToInclude(e.mbr);
    mbrs.push_back(mbr);
  }
  return pictdb::geom::AreaCoveredAtLeast(mbrs, 2);
}

}  // namespace

int main() {
  constexpr int kRows = 16;
  constexpr double kBox = 8.0;     // data box side
  constexpr double kGapY = 20.0;   // vertical spacing
  constexpr double kGapX = 900.0;  // the two columns are far apart

  std::vector<Entry> items;
  for (int row = 0; row < kRows; ++row) {
    for (int col = 0; col < 2; ++col) {
      Entry e;
      const double x = col * kGapX;
      const double y = row * kGapY;
      e.mbr = Rect(x, y, x + kBox, y + kBox);
      e.payload = static_cast<uint64_t>(row * 2 + col);
      items.push_back(e);
    }
  }

  // Fig 3.7a: row-wise pairs — zero overlap, huge coverage.
  std::vector<std::vector<Entry>> rows;
  for (int row = 0; row < kRows; ++row) {
    rows.push_back({items[row * 2], items[row * 2 + 1]});
  }

  // Fig 3.7b: column-wise pairs — zero overlap, tight coverage.
  std::vector<std::vector<Entry>> columns;
  for (int row = 0; row + 1 < kRows; row += 2) {
    columns.push_back({items[row * 2], items[(row + 1) * 2]});
    columns.push_back({items[row * 2 + 1], items[(row + 1) * 2 + 1]});
  }

  // What PACK actually produces on this input.
  const auto packed = pictdb::pack::Group(items, 2, {});

  std::printf("%-28s %10s %10s\n", "grouping", "coverage", "overlap");
  std::printf("%-28s %10.1f %10.1f\n", "row pairs      (Fig 3.7a)",
              Coverage(rows), Overlap(rows));
  std::printf("%-28s %10.1f %10.1f\n", "column pairs   (Fig 3.7b)",
              Coverage(columns), Overlap(columns));
  std::printf("%-28s %10.1f %10.1f\n", "algorithm PACK", Coverage(packed),
              Overlap(packed));

  PICTDB_CHECK(Overlap(rows) == 0.0);
  PICTDB_CHECK(Coverage(columns) < Coverage(rows) / 10);
  PICTDB_CHECK(Coverage(packed) <= Coverage(columns) * 1.01);
  std::printf("\nPACK matches the good grouping: zero overlap is necessary "
              "but not sufficient;\ncoverage must be minimized at the same "
              "time (the paper's simultaneous-minimization point).\n");
  return 0;
}
