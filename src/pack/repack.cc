#include "pack/repack.h"

#include "common/logging.h"
#include "rtree/traverse.h"

namespace pictdb::pack {

using rtree::Entry;
using rtree::LeafHit;
using rtree::RTree;

namespace {

std::vector<Entry> EntriesOf(const std::vector<LeafHit>& hits) {
  std::vector<Entry> items;
  items.reserve(hits.size());
  for (const LeafHit& hit : hits) {
    items.push_back(Entry{hit.mbr, Entry::PayloadFromRid(hit.rid)});
  }
  return items;
}

}  // namespace

Status Repack(RTree* tree, const PackOptions& options) {
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> hits,
                          tree->CollectAllEntries());
  PICTDB_RETURN_IF_ERROR(tree->Clear());
  return Pack(tree, EntriesOf(hits), options);
}

StatusOr<ScrubReport> ScrubAndRepack(RTree* tree,
                                     storage::PageQuarantine* quarantine,
                                     const std::vector<Entry>* base_entries,
                                     const PackOptions& options) {
  PICTDB_CHECK(quarantine != nullptr);
  ScrubReport report;
  rtree::SearchOptions degrade;
  degrade.degraded_ok = true;
  degrade.quarantine = quarantine;

  // Scrub: walk whatever is still reachable, salvaging leaf entries and
  // remembering which old pages can safely be freed. The walk skips and
  // quarantines unreadable pages.
  std::vector<storage::PageId> readable;
  std::vector<Entry> salvaged;
  rtree::Walk salvage([&](const rtree::NodeRef& ref,
                          const rtree::SoaNode& node) {
    readable.push_back(ref.id);
    if (node.is_leaf()) {
      for (size_t i = 0; i < node.count(); ++i) {
        salvaged.push_back(Entry{node.RectAt(i), node.payloads[i]});
      }
    }
    return Status::OK();
  });
  rtree::SearchStats stats;
  PICTDB_RETURN_IF_ERROR(rtree::TraverseTree(*tree, salvage, degrade, &stats));
  report.pages_quarantined = stats.skipped_subtrees;
  report.entries_recovered = salvaged.size();

  // Reset to a fresh empty root without touching the old (partially
  // unreadable) node chain, then return the readable old pages to the
  // free list. Quarantined pages stay allocated forever.
  PICTDB_RETURN_IF_ERROR(tree->ResetForRebuild());
  for (const storage::PageId id : readable) {
    PICTDB_RETURN_IF_ERROR(tree->pool()->FreePage(id));
    ++report.pages_freed;
  }

  report.rebuilt_from_base = base_entries != nullptr;
  PICTDB_RETURN_IF_ERROR(Pack(
      tree, base_entries != nullptr ? *base_entries : std::move(salvaged),
      options));
  return report;
}

StatusOr<size_t> RepackRegion(RTree* tree, const geom::Rect& region,
                              const PackOptions& options) {
  PICTDB_ASSIGN_OR_RETURN(const std::vector<LeafHit> hits,
                          tree->SearchIntersects(region));
  if (hits.size() < 2) return size_t{0};  // nothing to regroup

  // Detach the region's entries.
  for (const LeafHit& hit : hits) {
    PICTDB_RETURN_IF_ERROR(tree->Delete(hit.mbr, hit.rid));
  }

  const std::vector<Entry> items = EntriesOf(hits);
  const size_t max = tree->options().max_entries;
  if (tree->Height() < 2 || items.size() < max) {
    // Too shallow (or too few entries to fill a leaf): plain re-insert.
    for (const Entry& e : items) {
      PICTDB_RETURN_IF_ERROR(tree->Insert(e.mbr, e.AsRid()));
    }
    return items.size();
  }

  // Regroup into full leaves with the packer's grouping and graft each
  // leaf back as a subtree. A trailing underfull group is re-inserted
  // entry by entry so no leaf violates the minimum fill under later
  // deletes.
  const auto groups = Group(items, max, options);
  const size_t min_fill = tree->options().min_entries;
  size_t repacked = 0;
  for (const auto& group : groups) {
    if (group.size() < std::max<size_t>(min_fill, 1)) {
      for (const Entry& e : group) {
        PICTDB_RETURN_IF_ERROR(tree->Insert(e.mbr, e.AsRid()));
        ++repacked;
      }
      continue;
    }
    geom::Rect mbr;
    for (const Entry& e : group) mbr.ExpandToInclude(e.mbr);
    PICTDB_ASSIGN_OR_RETURN(const storage::PageId page,
                            tree->BulkWriteNode(0, group));
    PICTDB_RETURN_IF_ERROR(
        tree->InsertSubtree(page, mbr, /*subtree_level=*/0, group.size()));
    repacked += group.size();
  }
  return repacked;
}

}  // namespace pictdb::pack
