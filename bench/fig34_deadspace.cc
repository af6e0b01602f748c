// Figure 3.4 reproduction: a point set whose natural grouping packs into
// tight leaves with minimal coverage (3.4b), but where Guttman's INSERT —
// "new data objects must be added to pre-existing R-tree leaves"
// (requirement (2)) — creates leaves with "much useless space in the
// middle" (3.4c).
//
// Scenario: two outer clusters arrive first and fix the leaf structure;
// a middle cluster arrives last and must be absorbed by leaves anchored
// at the extremes, stretching them across the dead middle. PACK sees the
// complete set and keeps each cluster in its own leaf.

#include <cstdio>

#include "bench_util.h"
#include "geom/measure.h"
#include "pack/pack.h"
#include "rtree/metrics.h"

namespace {

using pictdb::bench::FakeRid;
using pictdb::bench::PointEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;

void Report(const char* label, const pictdb::rtree::RTree& tree) {
  auto leaves = tree.CollectLeafNodeMbrs();
  PICTDB_CHECK(leaves.ok());
  double coverage = 0;
  std::printf("%s: %zu leaves\n", label, leaves->size());
  for (const Rect& r : *leaves) {
    std::printf("  leaf MBR %-26s area=%8.1f\n",
                pictdb::geom::ToString(r).c_str(), r.Area());
    coverage += r.Area();
  }
  std::printf("  total coverage = %.1f\n\n", coverage);
}

std::vector<Point> Cluster(double cx, double cy) {
  return {{cx, cy}, {cx + 2, cy}, {cx, cy + 2}, {cx + 2, cy + 2}};
}

}  // namespace

int main() {
  // Figure 3.4a analogue: three clusters along a line. The middle
  // cluster's points arrive after the outer leaves already exist.
  std::vector<Point> arrival;
  for (const Point& p : Cluster(0, 0)) arrival.push_back(p);     // left
  for (const Point& p : Cluster(80, 24)) arrival.push_back(p);   // right
  for (const Point& p : Cluster(40, 12)) arrival.push_back(p);   // middle

  pictdb::rtree::RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;

  TreeEnv dynamic = TreeEnv::Make(opts, 256);
  for (size_t i = 0; i < arrival.size(); ++i) {
    PICTDB_CHECK_OK(dynamic.tree->Insert(Rect::FromPoint(arrival[i]),
                                         FakeRid(i)));
  }
  Report("Guttman INSERT, middle cluster last (Fig 3.4c)", *dynamic.tree);

  TreeEnv packed = TreeEnv::Make(opts, 256);
  PICTDB_CHECK_OK(pictdb::pack::Pack(packed.tree.get(),
                                                    PointEntries(arrival)));
  Report("PACK over the full set (Fig 3.4b)", *packed.tree);

  auto dq = pictdb::rtree::MeasureTree(*dynamic.tree);
  auto pq = pictdb::rtree::MeasureTree(*packed.tree);
  PICTDB_CHECK(dq.ok() && pq.ok());
  std::printf("summary: INSERT coverage %.1f vs PACK coverage %.1f "
              "(%.1fx dead space)\n",
              dq->coverage, pq->coverage, dq->coverage / pq->coverage);
  PICTDB_CHECK(pq->coverage < dq->coverage)
      << "PACK must avoid the dead space INSERT manufactures here";
  std::printf("paper's point: insertion into pre-existing leaves stretches "
              "them across empty\nspace between clusters; packing the "
              "complete set keeps every cluster tight.\n");
  return 0;
}
