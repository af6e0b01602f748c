#ifndef PICTDB_PACK_REPACK_H_
#define PICTDB_PACK_REPACK_H_

#include <vector>

#include "common/status_or.h"
#include "geom/rect.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/quarantine.h"

namespace pictdb::pack {

/// Full reorganization: collect every leaf entry, free all nodes, and
/// bulk-load the same entries with the packer selected by
/// `options.strategy` (default: the paper's PACK). Restores the
/// freshly-packed quality after heavy churn (§3.4 / §4 of the paper).
Status Repack(rtree::RTree* tree, const PackOptions& options = {});

/// The paper's §4 future-work item made concrete: "dynamic invocation of
/// the PACK algorithm during insertions and deletions to efficiently
/// perform a local reorganization". Removes the leaf entries whose MBRs
/// intersect `region`, regroups them into full leaves with Group() and
/// `options` (default: PACK's nearest-neighbour grouping), and grafts
/// those leaves back as subtrees.
/// Returns the number of entries repacked. Falls back to per-entry
/// re-insertion when the tree is too shallow to host subtrees.
StatusOr<size_t> RepackRegion(rtree::RTree* tree, const geom::Rect& region,
                              const PackOptions& options = {});

/// Outcome of a ScrubAndRepack pass.
struct ScrubReport {
  /// Leaf entries salvaged from still-readable leaves during the scrub.
  uint64_t entries_recovered = 0;
  /// Unreadable pages discovered (added to the quarantine, never reused).
  uint64_t pages_quarantined = 0;
  /// Readable old-tree pages returned to the free list.
  uint64_t pages_freed = 0;
  /// True when the rebuild used caller-supplied base entries rather than
  /// the salvaged set.
  bool rebuilt_from_base = false;
};

/// Recovery path for a tree with unreadable (corrupt / permanently
/// failing) pages: scrub the tree in degraded mode — salvaging every
/// leaf entry reachable through readable pages and quarantining the
/// rest — then rebuild from scratch with the packer selected by
/// `options.strategy`. When `base_entries` is
/// non-null it is treated as the authoritative record of the indexed
/// objects (e.g. re-derived from the heap file) and the rebuild uses it
/// instead of the salvaged set, restoring the full pre-corruption
/// answer. Quarantined pages are never freed, so permanently bad media
/// is never reused.
StatusOr<ScrubReport> ScrubAndRepack(
    rtree::RTree* tree, storage::PageQuarantine* quarantine,
    const std::vector<rtree::Entry>* base_entries = nullptr,
    const PackOptions& options = {});

/// Simple churn monitor implementing a repack policy: count updates and
/// recommend a full re-PACK once they exceed `threshold_fraction` of the
/// tree's size (the "relatively static" regime of the paper makes this
/// rare).
class RepackPolicy {
 public:
  explicit RepackPolicy(double threshold_fraction = 0.25)
      : threshold_(threshold_fraction) {}

  void RecordUpdate(uint64_t count = 1) { updates_ += count; }

  bool ShouldRepack(const rtree::RTree& tree) const {
    if (tree.Size() == 0) return false;
    return static_cast<double>(updates_) >=
           threshold_ * static_cast<double>(tree.Size());
  }

  /// Repack if due; resets the counter when it fires.
  StatusOr<bool> MaybeRepack(rtree::RTree* tree,
                             const PackOptions& options = {}) {
    if (!ShouldRepack(*tree)) return false;
    PICTDB_RETURN_IF_ERROR(Repack(tree, options));
    updates_ = 0;
    return true;
  }

  uint64_t updates() const { return updates_; }

 private:
  double threshold_;
  uint64_t updates_ = 0;
};

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_REPACK_H_
