#include "rtree/cursor.h"

#include <vector>

#include "rtree/traverse.h"

namespace pictdb::rtree {

struct SearchCursor::Impl {
  using Policy = ShapeSearch<geom::Rect>;

  Impl(const RTree* tree, LaneTest<geom::Rect> interior,
       LaneTest<geom::Rect> leaf, const geom::Rect& window,
       const SearchOptions& options)
      : policy{{}, interior, leaf, window, &leaf_hits},
        engine({tree}, Traversal<Policy>::Root(*tree), options, &stats) {}

  /// Hits of the last leaf visited, handed out from `next`.
  std::vector<LeafHit> leaf_hits;
  size_t next = 0;
  SearchStats stats;
  Policy policy;
  Traversal<Policy> engine;
};

SearchCursor::SearchCursor(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
SearchCursor::SearchCursor(SearchCursor&&) noexcept = default;
SearchCursor& SearchCursor::operator=(SearchCursor&&) noexcept = default;
SearchCursor::~SearchCursor() = default;

SearchCursor SearchCursor::Intersects(const RTree* tree,
                                      const geom::Rect& window,
                                      const SearchOptions& options) {
  const simd::RectKernels& kernels = simd::ActiveKernels();
  return SearchCursor(std::make_unique<Impl>(
      tree, kernels.intersects, kernels.intersects, window, options));
}

SearchCursor SearchCursor::ContainedIn(const RTree* tree,
                                       const geom::Rect& window,
                                       const SearchOptions& options) {
  const simd::RectKernels& kernels = simd::ActiveKernels();
  return SearchCursor(std::make_unique<Impl>(
      tree, kernels.intersects, kernels.contained_in, window, options));
}

StatusOr<std::optional<LeafHit>> SearchCursor::Next() {
  Impl& c = *impl_;
  // Step the engine until a leaf yields hits; the policy copies each
  // leaf's hits out because the next step reuses the node scratch.
  while (c.next == c.leaf_hits.size()) {
    c.leaf_hits.clear();
    c.next = 0;
    if (c.engine.Exhausted(c.policy)) return std::optional<LeafHit>();
    PICTDB_RETURN_IF_ERROR(c.engine.Step(c.policy));
  }
  return std::optional<LeafHit>(c.leaf_hits[c.next++]);
}

const SearchStats& SearchCursor::stats() const { return impl_->stats; }

}  // namespace pictdb::rtree
