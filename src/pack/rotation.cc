#include "pack/rotation.h"

#include <algorithm>

#include "common/logging.h"
#include "pack/pack.h"

namespace pictdb::pack {

StatusOr<RotationPacking> ComputeRotationPacking(
    const std::vector<geom::Point>& points, size_t group_size) {
  if (group_size < 1) {
    return Status::InvalidArgument("group size must be positive");
  }
  RotationPacking out;
  if (points.empty()) return out;

  out.angle = geom::FindDistinctXRotation(points);
  out.rotated = geom::Transform::Rotation(out.angle).Apply(points);

  std::vector<geom::Point> sorted = out.rotated;
  std::sort(sorted.begin(), sorted.end(),
            [](const geom::Point& a, const geom::Point& b) {
              return a.x < b.x || (a.x == b.x && a.y < b.y);
            });
  for (size_t i = 0; i < sorted.size(); i += group_size) {
    geom::Rect mbr;
    const size_t end = std::min(sorted.size(), i + group_size);
    for (size_t j = i; j < end; ++j) mbr.ExpandToInclude(sorted[j]);
    out.leaf_mbrs.push_back(mbr);
  }
  return out;
}

Status PackWithRotation(rtree::RTree* tree,
                        const std::vector<geom::Point>& points,
                        const std::vector<storage::Rid>& rids,
                        geom::Transform* transform_out) {
  PICTDB_CHECK(points.size() == rids.size());
  if (points.empty()) {
    if (transform_out != nullptr) *transform_out = geom::Transform();
    return Status::OK();
  }
  const double angle = geom::FindDistinctXRotation(points);
  const geom::Transform rot = geom::Transform::Rotation(angle);
  if (transform_out != nullptr) *transform_out = rot;
  const std::vector<geom::Point> rotated = rot.Apply(points);
  return Pack(tree, MakeLeafEntries(rotated, rids),
              {.strategy = PackStrategy::kSortChunk});
}

}  // namespace pictdb::pack
