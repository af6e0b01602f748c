#include "pack/pack.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "pack/builder.h"
#include "pack/external.h"
#include "pack/hilbert.h"
#include "pack/nn_grid.h"

namespace pictdb::pack {

using rtree::Entry;
using rtree::RTree;

Status ValidatePackEntry(const Entry& entry) {
  const geom::Rect& r = entry.mbr;
  if (!std::isfinite(r.lo.x) || !std::isfinite(r.lo.y) ||
      !std::isfinite(r.hi.x) || !std::isfinite(r.hi.y)) {
    return Status::InvalidArgument("pack entry MBR has non-finite coordinate");
  }
  if (r.IsEmpty()) {
    return Status::InvalidArgument("pack entry MBR is empty (lo > hi)");
  }
  return Status::OK();
}

uint64_t MonotoneBits(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  // Positive doubles already sort by their bit pattern; flipping the sign
  // bit lifts them above every negative, and complementing negatives
  // reverses their (descending-magnitude) bit order.
  return (bits & (uint64_t{1} << 63)) != 0 ? ~bits
                                           : bits | (uint64_t{1} << 63);
}

uint64_t SortKey(const Entry& entry, SortCriterion criterion,
                 const geom::Rect& hilbert_frame) {
  const geom::Point c = entry.mbr.Center();
  switch (criterion) {
    case SortCriterion::kAscendingX:
      return MonotoneBits(c.x);
    case SortCriterion::kAscendingY:
      return MonotoneBits(c.y);
    case SortCriterion::kHilbert:
      return HilbertValue(c, hilbert_frame);
  }
  PICTDB_CHECK(false) << "unknown SortCriterion";
  return 0;
}

std::optional<SortCriterion> LevelKey(const PackOptions& options) {
  if (options.strategy == PackStrategy::kNearestNeighbor) return std::nullopt;
  return options.strategy == PackStrategy::kStr ? SortCriterion::kAscendingX
                                                : options.criterion;
}

namespace {

using NodeSink = std::function<Status(const std::vector<Entry>&)>;

/// Indices of `items` ordered by the chosen spatial criterion applied to
/// the MBR centers (input order when there is none). Keys are
/// materialized once per entry, so the sort only compares uint64s, and
/// ties keep input order, so the result is exactly "stable sort by key".
/// This is the ordering contract the external loader's run-merge
/// reproduces.
std::vector<size_t> OrderBy(const std::vector<Entry>& items,
                            std::optional<SortCriterion> criterion) {
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!criterion.has_value()) return order;
  geom::Rect frame;  // Hilbert keys quantize against the union of all MBRs
  if (criterion == SortCriterion::kHilbert) {
    for (const Entry& e : items) frame.ExpandToInclude(e.mbr);
  }
  std::vector<uint64_t> keys;
  keys.reserve(items.size());
  for (const Entry& e : items) keys.push_back(SortKey(e, *criterion, frame));
  std::stable_sort(order.begin(), order.end(),
                   [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

/// Algorithm PACK from §3.3 of the paper over one whole level: take the
/// first unassigned item in criterion order and its B-1 nearest
/// neighbours (by MBR center distance) as a node, until none remain.
/// Grid indices are input positions, so input order breaks distance
/// ties. Each node goes to `sink` as soon as it is formed.
Status NearestNeighborNodes(const std::vector<Entry>& items,
                            size_t max_per_node, SortCriterion criterion,
                            const NodeSink& sink) {
  const std::vector<size_t> order = OrderBy(items, criterion);

  std::vector<geom::Point> centers;
  centers.reserve(items.size());
  for (const Entry& e : items) centers.push_back(e.mbr.Center());
  NearestNeighborGrid grid(centers);

  std::vector<Entry> group;
  size_t cursor = 0;  // next candidate in criterion order
  while (grid.remaining() > 0) {
    // I1 := first object of DLIST (in criterion order, still unassigned).
    while (cursor < order.size() && !grid.Contains(order[cursor])) ++cursor;
    PICTDB_CHECK(cursor < order.size());
    const size_t seed = order[cursor];
    grid.Remove(seed);

    group.assign(1, items[seed]);
    // I2..IB := NN(DLIST, I1) — each call returns the remaining item
    // closest to I1 and deletes it from DLIST.
    while (group.size() < max_per_node && grid.remaining() > 0) {
      const auto nn = grid.Nearest(centers[seed]);
      PICTDB_CHECK(nn.has_value());
      grid.Remove(*nn);
      group.push_back(items[*nn]);
    }
    PICTDB_RETURN_IF_ERROR(sink(group));
  }
  return Status::OK();
}

/// The node cutter: turns one level's ordered stream into nodes of at
/// most `max` entries and hands each to the sink.
///  - kSortChunk cuts every `max` entries.
///  - kStr buffers one slab of S·max entries, S = ceil(sqrt(ceil(n/max))),
///    stable-sorts the slab by y, then cuts every `max`.
///  - kNearestNeighbor buffers the whole level (in input order) and
///    groups it when the level ends.
class NodeCutter {
 public:
  NodeCutter(const PackOptions& options, size_t max, uint64_t n,
             const NodeSink& sink)
      : options_(options), max_(max), sink_(sink) {
    PICTDB_CHECK(max >= 1);
    if (options.strategy == PackStrategy::kSortChunk) flush_at_ = max;
    if (options.strategy == PackStrategy::kStr) {
      const double nodes = static_cast<double>((n + max - 1) / max);
      flush_at_ = static_cast<uint64_t>(std::ceil(std::sqrt(nodes))) * max;
    }
    buffer_.reserve(static_cast<size_t>(std::min(flush_at_, n)));
  }

  Status Add(const Entry& e) {
    buffer_.push_back(e);
    return buffer_.size() == flush_at_ ? Flush() : Status::OK();
  }

  Status Finish() { return Flush(); }

 private:
  Status Flush() {
    if (options_.strategy == PackStrategy::kNearestNeighbor) {
      return NearestNeighborNodes(buffer_, max_, options_.criterion, sink_);
    }
    if (options_.strategy == PackStrategy::kStr) {  // tile the slab by y
      std::vector<Entry> by_y;
      by_y.reserve(buffer_.size());
      for (const size_t i : OrderBy(buffer_, SortCriterion::kAscendingY)) {
        by_y.push_back(buffer_[i]);
      }
      buffer_ = std::move(by_y);
    }
    for (size_t i = 0; i < buffer_.size(); i += max_) {
      PICTDB_RETURN_IF_ERROR(sink_(
          {buffer_.begin() + i,
           buffer_.begin() + std::min(buffer_.size(), i + max_)}));
    }
    buffer_.clear();
    return Status::OK();
  }

  const PackOptions& options_;
  const size_t max_;
  const NodeSink& sink_;
  uint64_t flush_at_ = UINT64_MAX;  // nearest-neighbor: the whole level
  std::vector<Entry> buffer_;
};

/// Runs one level through an orderer into a fresh node cutter.
Status CutLevel(const PackOptions& options, size_t max, uint64_t n,
                const LevelOrderer& order, const NodeSink& sink) {
  NodeCutter cutter(options, max, n, sink);
  PICTDB_RETURN_IF_ERROR(
      order([&cutter](const Entry& e) { return cutter.Add(e); }));
  return cutter.Finish();
}

/// The in-memory orderer: `items` (not copied) in stable LevelKey order.
LevelOrderer InMemoryOrder(const std::vector<Entry>& items,
                           const PackOptions& options) {
  return [&items, &options](const EntrySink& emit) -> Status {
    for (const size_t i : OrderBy(items, LevelKey(options))) {
      PICTDB_RETURN_IF_ERROR(emit(items[i]));
    }
    return Status::OK();
  };
}

}  // namespace

Status BuildTree(RTree* tree, const PackOptions& options, uint64_t n,
                 const LevelOrderer& leaves) {
  const size_t max = tree->options().max_entries;
  uint16_t level = 0;
  storage::PageId last = 0;
  std::vector<Entry> parents;
  const NodeSink write = [&](const std::vector<Entry>& node) -> Status {
    PICTDB_ASSIGN_OR_RETURN(last, tree->BulkWriteNode(level, node));
    Entry parent;
    for (const Entry& e : node) parent.mbr.ExpandToInclude(e.mbr);
    parent.payload = Entry::PayloadFromChild(last);
    parents.push_back(parent);
    return Status::OK();
  };
  PICTDB_RETURN_IF_ERROR(CutLevel(options, max, n, leaves, write));
  // n <= B: the one leaf, written in the cutter's order, is the root.
  if (parents.size() == 1) return tree->BulkSetRoot(last, 1, n);

  while (parents.size() > max) {
    const std::vector<Entry> items = std::exchange(parents, {});
    ++level;
    PICTDB_RETURN_IF_ERROR(CutLevel(options, max, items.size(),
                                    InMemoryOrder(items, options), write));
  }
  // The upper-level root keeps its children in emit order.
  ++level;
  PICTDB_ASSIGN_OR_RETURN(const storage::PageId root,
                          tree->BulkWriteNode(level, parents));
  return tree->BulkSetRoot(root, level + 1u, n);
}

Status Pack(RTree* tree, std::vector<Entry> leaf_items,
            const PackOptions& options) {
  if (options.memory_budget_bytes > 0) {
    VectorEntrySource source(&leaf_items);
    return PackExternal(tree, &source, options);
  }
  if (tree->Size() != 0) {
    return Status::InvalidArgument("bulk load target tree is not empty");
  }
  for (size_t i = 0; i < leaf_items.size(); ++i) {
    if (Status s = ValidatePackEntry(leaf_items[i]); !s.ok()) {
      return Status::InvalidArgument(s.message() + " (entry " +
                                     std::to_string(i) + ")");
    }
  }
  if (leaf_items.empty()) return Status::OK();
  return BuildTree(tree, options, leaf_items.size(),
                   InMemoryOrder(leaf_items, options));
}

std::vector<std::vector<Entry>> Group(const std::vector<Entry>& items,
                                      size_t max_per_node,
                                      const PackOptions& options) {
  std::vector<std::vector<Entry>> groups;
  PICTDB_CHECK_OK(CutLevel(options, max_per_node, items.size(),
                           InMemoryOrder(items, options),
                           [&groups](const std::vector<Entry>& node) {
                             groups.push_back(node);
                             return Status::OK();
                           }));
  return groups;
}

std::vector<Entry> MakeLeafEntries(const std::vector<geom::Point>& points,
                                   const std::vector<storage::Rid>& rids) {
  std::vector<geom::Rect> rects;
  rects.reserve(points.size());
  for (const geom::Point& p : points) rects.push_back(geom::Rect::FromPoint(p));
  return MakeLeafEntries(rects, rids);
}

std::vector<Entry> MakeLeafEntries(const std::vector<geom::Rect>& rects,
                                   const std::vector<storage::Rid>& rids) {
  PICTDB_CHECK(rects.size() == rids.size());
  std::vector<Entry> out;
  out.reserve(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    Entry e;
    e.mbr = rects[i];
    e.payload = Entry::PayloadFromRid(rids[i]);
    out.push_back(e);
  }
  return out;
}

}  // namespace pictdb::pack
