// Figure 3.8 reproduction: PACK run on the US-cities map, tracing each
// recursion level. 3.8a is the raw point set, 3.8b the leaf grouping by
// nearest neighbours, 3.8c the next level of MBRs. Emits one SVG per
// level plus an ASCII rendition of the leaf level, and prints the level
// structure.

#include <cstdio>

#include "bench_util.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "viz/ascii_canvas.h"
#include "viz/svg.h"
#include "workload/us_cities.h"

namespace {

using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;

}  // namespace

int main() {
  const auto cities = pictdb::workload::ContinentalUsCities();
  const Rect frame = pictdb::workload::ContinentalUsFrame();

  std::vector<Point> pts;
  std::vector<pictdb::storage::Rid> rids;
  for (size_t i = 0; i < cities.size(); ++i) {
    pts.push_back(cities[i].loc());
    rids.push_back(pictdb::storage::Rid{
        static_cast<pictdb::storage::PageId>(i), 0});
  }

  pictdb::rtree::RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;
  TreeEnv env = TreeEnv::Make(opts, 256);
  PICTDB_CHECK_OK(pictdb::pack::Pack(
      env.tree.get(), pictdb::pack::MakeLeafEntries(pts, rids)));

  std::printf("PACK trace over %zu US cities (branching factor 4):\n",
              pts.size());
  for (uint16_t level = 0; level < env.tree->Height(); ++level) {
    auto mbrs = env.tree->CollectNodeMbrsAtLevel(level);
    PICTDB_CHECK(mbrs.ok());
    std::printf("  level %u: %zu nodes\n", level, mbrs->size());

    pictdb::viz::SvgWriter svg(frame, 900);
    for (const Point& p : pts) svg.AddPoint(p, "black", 1.5);
    for (const Rect& r : *mbrs) svg.AddRect(r, "crimson", 1.0);
    char name[64];
    std::snprintf(name, sizeof(name), "fig38_level%u.svg", level);
    PICTDB_CHECK_OK(svg.WriteFigure(name));
  }
  std::printf("SVGs written to %s (=Fig 3.8b), %s (=Fig 3.8c), ...\n\n",
              pictdb::viz::FigurePath("fig38_level0.svg").c_str(),
              pictdb::viz::FigurePath("fig38_level1.svg").c_str());

  // ASCII view of the leaf grouping (Fig 3.8b).
  pictdb::viz::AsciiCanvas canvas(frame, 100, 30);
  auto leaves = env.tree->CollectLeafNodeMbrs();
  PICTDB_CHECK(leaves.ok());
  for (const Rect& r : *leaves) canvas.DrawRect(r);
  for (const Point& p : pts) canvas.DrawPoint(p, '*');
  std::printf("%s\n", canvas.Render().c_str());
  return 0;
}
