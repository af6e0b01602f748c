#ifndef PICTDB_BENCH_BENCH_UTIL_H_
#define PICTDB_BENCH_BENCH_UTIL_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pictdb::bench {

/// Self-contained R-tree environment for benchmarks: memory-backed pages
/// plus a pool large enough that eviction never perturbs measurements
/// (unless a bench wants it to).
struct TreeEnv {
  std::unique_ptr<storage::InMemoryDiskManager> disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> tree;

  static TreeEnv Make(const rtree::RTreeOptions& options,
                      uint32_t page_size = 512, size_t pool_frames = 1 << 16) {
    TreeEnv env;
    env.disk = std::make_unique<storage::InMemoryDiskManager>(page_size);
    env.pool = std::make_unique<storage::BufferPool>(env.disk.get(),
                                                     pool_frames);
    auto tree = rtree::RTree::Create(env.pool.get(), options);
    PICTDB_CHECK(tree.ok()) << tree.status().ToString();
    env.tree = std::make_unique<rtree::RTree>(std::move(tree).value());
    return env;
  }
};

/// The packers by name: the paper's PACK ("nn"), sort-chunk by ascending
/// x ("lowx") or by Hilbert value ("hilbert"), and STR ("str").
inline std::optional<pack::PackOptions> PackerNamed(std::string_view name) {
  if (name == "nn") return pack::PackOptions{};
  if (name == "lowx") {
    return pack::PackOptions{.strategy = pack::PackStrategy::kSortChunk};
  }
  if (name == "hilbert") {
    return pack::PackOptions{.criterion = pack::SortCriterion::kHilbert,
                             .strategy = pack::PackStrategy::kSortChunk};
  }
  if (name == "str") {
    return pack::PackOptions{.strategy = pack::PackStrategy::kStr};
  }
  return std::nullopt;
}

/// Synthetic Rid for the i-th object (benchmarks do not need a real heap).
inline storage::Rid FakeRid(size_t i) {
  return storage::Rid{static_cast<storage::PageId>(i / 1000),
                      static_cast<uint16_t>(i % 1000)};
}

/// Leaf entries for a point set with synthetic rids.
inline std::vector<rtree::Entry> PointEntries(
    const std::vector<geom::Point>& pts) {
  std::vector<storage::Rid> rids;
  rids.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) rids.push_back(FakeRid(i));
  return pack::MakeLeafEntries(pts, rids);
}

/// Leaf entries for a rect set with synthetic rids.
inline std::vector<rtree::Entry> RectEntries(
    const std::vector<geom::Rect>& rects) {
  std::vector<storage::Rid> rids;
  rids.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) rids.push_back(FakeRid(i));
  return pack::MakeLeafEntries(rects, rids);
}

}  // namespace pictdb::bench

#endif  // PICTDB_BENCH_BENCH_UTIL_H_
