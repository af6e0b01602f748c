#ifndef PICTDB_RTREE_CURSOR_H_
#define PICTDB_RTREE_CURSOR_H_

#include <memory>
#include <optional>

#include "common/status_or.h"
#include "rtree/rtree.h"

namespace pictdb::rtree {

/// Streaming search over an R-tree: yields qualifying leaf entries one at
/// a time without materializing the full result set, so callers can stop
/// early (LIMIT-style consumption) or process results larger than memory.
/// The stream is exactly the vector the matching one-shot search returns,
/// in the same order, and stats() at exhaustion equals its stats: the
/// cursor is the same traversal, suspended between nodes. `options`
/// carries the deadline/cancel flag (polled once per node) and degraded
/// mode. The tree must not be modified while a cursor is open.
class SearchCursor {
 public:
  /// Window-intersection cursor (streams SearchIntersects).
  static SearchCursor Intersects(const RTree* tree, const geom::Rect& window,
                                 const SearchOptions& options = {});

  /// Window-containment cursor (streams SearchContainedIn, the paper's
  /// SEARCH semantics).
  static SearchCursor ContainedIn(const RTree* tree, const geom::Rect& window,
                                  const SearchOptions& options = {});

  SearchCursor(SearchCursor&&) noexcept;
  SearchCursor& operator=(SearchCursor&&) noexcept;
  ~SearchCursor();

  /// Next qualifying entry, or nullopt at the end of the result stream.
  StatusOr<std::optional<LeafHit>> Next();

  /// Nodes visited / entries tested so far.
  const SearchStats& stats() const;

 private:
  struct Impl;
  explicit SearchCursor(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_CURSOR_H_
