#ifndef PICTDB_WORKLOAD_SERVING_DATASET_H_
#define PICTDB_WORKLOAD_SERVING_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtree/node.h"

namespace pictdb::workload {

/// The dataset `pictdb_server` serves, fully determined by
/// (seed, objects, overlay): `objects` uniform points in the paper frame
/// drawn from `seed`, with rids {i + 1, 0}, and an `overlay` of 8x8
/// rects around uniform centers drawn from `seed + 1`, with rids
/// {i + 1, 1}, for joins. A client given the same parameters rebuilds
/// it to check wire answers against a brute-force oracle.
struct ServingDataset {
  std::vector<rtree::Entry> points;
  std::vector<rtree::Entry> overlay;
};

ServingDataset MakeServingDataset(uint64_t seed, size_t objects,
                                  size_t overlay);

}  // namespace pictdb::workload

#endif  // PICTDB_WORKLOAD_SERVING_DATASET_H_
