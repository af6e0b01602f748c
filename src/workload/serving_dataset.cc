#include "workload/serving_dataset.h"

#include "common/random.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "pack/pack.h"
#include "workload/generators.h"

namespace pictdb::workload {

ServingDataset MakeServingDataset(uint64_t seed, size_t objects,
                                  size_t overlay) {
  Random rng(seed);
  const std::vector<geom::Point> points =
      UniformPoints(&rng, objects, PaperFrame());
  std::vector<storage::Rid> rids(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    rids[i] = storage::Rid{static_cast<storage::PageId>(i + 1), 0};
  }

  Random overlay_rng(seed + 1);
  const std::vector<geom::Point> centers =
      UniformPoints(&overlay_rng, overlay, PaperFrame());
  std::vector<geom::Rect> rects;
  rects.reserve(centers.size());
  std::vector<storage::Rid> overlay_rids(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    rects.push_back(
        geom::Rect::FromCenterHalfExtent(centers[i].x, 4.0, centers[i].y, 4.0));
    overlay_rids[i] = storage::Rid{static_cast<storage::PageId>(i + 1), 1};
  }
  return ServingDataset{pack::MakeLeafEntries(points, rids),
                        pack::MakeLeafEntries(rects, overlay_rids)};
}

}  // namespace pictdb::workload
