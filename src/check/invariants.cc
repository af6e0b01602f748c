#include "check/invariants.h"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "geom/measure.h"
#include "rtree/node.h"
#include "rtree/traverse.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pictdb::check {

using geom::Rect;
using storage::PageId;

const char* ToString(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnreadablePage: return "unreadable-page";
    case ViolationKind::kLevelMismatch: return "level-mismatch";
    case ViolationKind::kOverfullNode: return "overfull-node";
    case ViolationKind::kUnderfullNode: return "underfull-node";
    case ViolationKind::kEmptyNode: return "empty-node";
    case ViolationKind::kParentMbrMismatch: return "parent-mbr-mismatch";
    case ViolationKind::kInvalidEntryMbr: return "invalid-entry-mbr";
    case ViolationKind::kDuplicatePage: return "duplicate-page";
    case ViolationKind::kQuarantinedPageReachable:
      return "quarantined-page-reachable";
    case ViolationKind::kChecksumMismatch: return "checksum-mismatch";
    case ViolationKind::kSizeMismatch: return "size-mismatch";
    case ViolationKind::kPinLeak: return "pin-leak";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::ostringstream os;
  os << check::ToString(kind);
  if (page != storage::kInvalidPageId) os << " page=" << page;
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

std::string ValidationReport::ToString() const {
  std::ostringstream os;
  os << "C=" << coverage << " O=" << overlap << " D=" << depth
     << " N=" << nodes << " J=" << leaf_entries;
  if (violations.empty()) {
    os << " [valid]";
  } else {
    os << " [" << violations.size() << " violation(s)]";
    for (const Violation& v : violations) os << "\n  " << v.ToString();
  }
  return os.str();
}

namespace {

using rtree::NodeRef;
using rtree::SoaNode;

bool FiniteAndOrdered(const Rect& r) {
  return std::isfinite(r.lo.x) && std::isfinite(r.lo.y) &&
         std::isfinite(r.hi.x) && std::isfinite(r.hi.y) && r.lo.x <= r.hi.x &&
         r.lo.y <= r.hi.y;
}

/// A node to check and its parent entry's MBR (unused at the root).
struct CheckFrame {
  NodeRef ref;
  Rect parent_mbr;
};

/// The checker's walk on the one traversal engine (rtree/traverse.h),
/// in report-and-continue mode: every node the walk reaches, readable
/// or not, becomes findings, and a node is descended through only when
/// its entries can be trusted as child pointers. The visited set turns
/// aliased subtrees and cycles into kDuplicatePage instead of a hang.
struct CheckWalk : rtree::SearchPolicy<CheckFrame> {
  static constexpr bool kReportFaults = true;
  static NodeRef Side(const CheckFrame& frame, size_t) { return frame.ref; }

  void Add(ViolationKind kind, PageId page, std::string detail) {
    if (report->violations.size() < options.max_violations) {
      report->violations.push_back(Violation{kind, page, std::move(detail)});
    }
  }

  /// Record `id` as reached; false (and a finding) when it was reached
  /// before.
  bool Admit(PageId id) {
    if (!visited.insert(id).second) {
      Add(ViolationKind::kDuplicatePage, id,
          "page reachable along more than one path");
      return false;
    }
    walk_order.push_back(id);
    if (options.quarantine != nullptr && options.quarantine->Contains(id)) {
      Add(ViolationKind::kQuarantinedPageReachable, id,
          "quarantined page still referenced by the tree");
    }
    return true;
  }

  Status OnUnreadable(const CheckFrame& frame, const Status& loaded) {
    if (Admit(frame.ref.id)) {
      Add(ViolationKind::kUnreadablePage, frame.ref.id, loaded.ToString());
      unreadable.insert(frame.ref.id);
    }
    return Status::OK();
  }

  Status OnLevelMismatch(const CheckFrame& frame, const SoaNode& node) {
    if (!Admit(frame.ref.id)) return Status::OK();
    ++report->nodes;
    std::ostringstream os;
    os << "stored level " << node.level << ", walk depth implies "
       << frame.ref.level;
    Add(ViolationKind::kLevelMismatch, frame.ref.id, os.str());
    // Descending through a node whose level lies would chase payloads
    // that may not be page ids at all; stop here.
    return Status::OK();
  }

  template <typename T>
  Status OnNode(const CheckFrame& frame, const SoaNode* nodes, T& t) {
    const PageId id = frame.ref.id;
    if (!Admit(id)) return Status::OK();
    const SoaNode& node = nodes[0];
    ++report->nodes;

    const bool is_root = id == root.id;
    if (node.count() > tree.MaxEntries()) {
      std::ostringstream os;
      os << node.count() << " entries > max " << tree.MaxEntries();
      Add(ViolationKind::kOverfullNode, id, os.str());
    }
    if (!is_root && node.count() == 0) {
      Add(ViolationKind::kEmptyNode, id, "non-root node has no entries");
    } else if (options.check_min_fill && !is_root &&
               node.count() < tree.MinEntries()) {
      std::ostringstream os;
      os << node.count() << " entries < min " << tree.MinEntries();
      Add(ViolationKind::kUnderfullNode, id, os.str());
    }

    bool entries_sane = true;
    for (size_t i = 0; i < node.count(); ++i) {
      const Rect r = node.RectAt(i);
      if (!FiniteAndOrdered(r)) {
        Add(ViolationKind::kInvalidEntryMbr, id,
            "entry MBR empty or non-finite: " + geom::ToString(r));
        entries_sane = false;
      }
    }
    // Mbr() recomputes the bound from every entry; hoist the one
    // computation this node needs instead of paying it per use.
    const Rect node_mbr = node.Mbr();
    if (!is_root && !(node_mbr == frame.parent_mbr)) {
      // Full precision: a single flipped mantissa bit must not print as
      // "X != X".
      const Rect& p = frame.parent_mbr;
      const Rect& m = node_mbr;
      std::ostringstream os;
      os << std::setprecision(17) << "parent entry [" << p.lo.x << ", "
         << p.lo.y << ", " << p.hi.x << ", " << p.hi.y
         << "] != minimal bound [" << m.lo.x << ", " << m.lo.y << ", "
         << m.hi.x << ", " << m.hi.y << "]";
      Add(ViolationKind::kParentMbrMismatch, id, os.str());
    }

    if (node.is_leaf()) {
      report->leaf_entries += node.count();
      if (options.measure_quality && node.count() > 0) {
        leaf_mbrs.push_back(node_mbr);
      }
      return Status::OK();
    }
    if (!entries_sane) return Status::OK();  // child MBRs untrustworthy
    for (size_t i = 0; i < node.count(); ++i) {
      t.Push(CheckFrame{NodeRef::ChildOf(node, i), node.RectAt(i)});
    }
    return Status::OK();
  }

  const rtree::RTree& tree;
  const ValidatorOptions& options;
  NodeRef root;
  ValidationReport* report;
  std::unordered_set<PageId> visited;
  std::unordered_set<PageId> unreadable;  // reported by the walk
  std::vector<PageId> walk_order;  // the pages reached, in walk order
  std::vector<Rect> leaf_mbrs;     // non-empty leaves (measure_quality)
};

}  // namespace

ValidationReport TreeValidator::Check(const rtree::RTree& tree) const {
  ValidationReport report;
  storage::BufferPool* pool = tree.pool();
  const size_t pinned_before = pool->pinned_frames();

  // Root page and level from one snapshot: the walk's expected levels,
  // its is-root test and the reported depth all describe one shape.
  const NodeRef root = rtree::Traversal<CheckWalk>::Root(tree);
  CheckWalk check{{}, tree, options_, root, &report, {}, {}, {}, {}};
  rtree::Traversal<CheckWalk> walk({&tree}, CheckFrame{root, Rect()}, {},
                                   nullptr);
  // Report-and-continue: every fault went to the report, so the walk
  // itself never fails.
  PICTDB_CHECK_OK(walk.Run(check));

  report.depth = root.level;
  if (report.leaf_entries != tree.Size()) {
    std::ostringstream os;
    os << "meta records " << tree.Size() << " entries, walk found "
       << report.leaf_entries;
    check.Add(ViolationKind::kSizeMismatch, tree.meta_page(), os.str());
  }

  if (options_.measure_quality) {
    report.coverage = geom::TotalArea(check.leaf_mbrs);
    report.overlap = geom::AreaCoveredAtLeast(check.leaf_mbrs, 2);
  }

  // --- On-disk CRC verification ------------------------------------------
  // Flush first so clean cached copies aren't failed against stale disk
  // images; then bypass the pool and check what the medium actually holds.
  if (options_.check_checksums && pool->options().checksum_pages) {
    const Status flushed = pool->FlushAll();
    if (!flushed.ok()) {
      check.Add(ViolationKind::kChecksumMismatch, storage::kInvalidPageId,
                "flush before CRC scan failed: " + flushed.ToString());
    } else {
      storage::DiskManager* disk = pool->disk();
      std::vector<char> raw(disk->page_size());
      for (const PageId id : check.walk_order) {
        const Status read = disk->ReadPage(id, raw.data());
        if (!read.ok()) {
          // The walk may have read this page from the pool's cache; then
          // only this raw read shows the medium has lost it.
          if (!check.unreadable.contains(id)) {
            check.Add(ViolationKind::kUnreadablePage, id, read.ToString());
          }
          continue;
        }
        const Status crc =
            storage::VerifyPageTrailer(raw.data(), disk->page_size(), id);
        if (!crc.ok()) {
          check.Add(ViolationKind::kChecksumMismatch, id, crc.ToString());
        }
      }
    }
  }

  // --- Pin-leak detection -------------------------------------------------
  const size_t pinned_after = pool->pinned_frames();
  if (pinned_after > pinned_before) {
    std::ostringstream os;
    os << pinned_after - pinned_before << " frame(s) left pinned by the walk";
    check.Add(ViolationKind::kPinLeak, storage::kInvalidPageId, os.str());
  }

  return report;
}

}  // namespace pictdb::check
