#ifndef PICTDB_RTREE_RTREE_H_
#define PICTDB_RTREE_RTREE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "geom/rect.h"
#include "rtree/node.h"
#include "rtree/split.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/quarantine.h"

namespace pictdb::rtree {

template <typename Policy>
class Traversal;

/// Construction-time knobs.
struct RTreeOptions {
  /// Maximum entries per node (the paper's branching factor). 0 derives it
  /// from the page size; the paper's experiments use 4.
  size_t max_entries = 0;

  /// Minimum fill for non-root nodes under dynamic updates; Guttman
  /// requires m <= M/2. 0 means max_entries / 2.
  size_t min_entries = 0;

  /// Heuristic used when a node overflows during INSERT.
  SplitAlgorithm split = SplitAlgorithm::kQuadratic;

  /// R*-style forced reinsertion: on the first overflow at each level
  /// per insertion, evict the ~30% of entries whose centers sit farthest
  /// from the node's center and re-insert them instead of splitting.
  /// Improves dynamic-tree quality at some insert cost.
  bool forced_reinsert = false;
};

/// Per-query search accounting — yields the paper's "average number of
/// nodes visited" column directly. The degraded fields report fault
/// handling: subtrees skipped because their root page was unreadable.
struct SearchStats {
  uint64_t nodes_visited = 0;
  uint64_t entries_tested = 0;
  uint64_t results = 0;
  /// Subtrees skipped over unreadable/corrupt pages (degraded mode).
  uint64_t skipped_subtrees = 0;
  /// True iff any subtree was skipped: the result set may be partial.
  bool degraded = false;
};

/// Per-query execution controls: a cooperative deadline and cancel flag
/// checked once per visited node, and a degraded mode that skips corrupt
/// subtrees (recording them in `quarantine`) instead of failing the
/// whole query.
struct SearchOptions {
  /// Absolute deadline; expiry surfaces as Status::DeadlineExceeded with
  /// whatever had been found so far discarded. max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Externally owned cancel flag, polled per node; a set flag surfaces
  /// as DeadlineExceeded("query cancelled").
  const std::atomic<bool>* cancel = nullptr;

  /// On an unreadable/corrupt page: skip that subtree, flag the result
  /// degraded, and keep searching — instead of propagating the error.
  bool degraded_ok = false;

  /// When set (and degraded_ok), skipped page ids are recorded here for
  /// later ScrubAndRepack recovery.
  storage::PageQuarantine* quarantine = nullptr;

  /// Deadline/cancel poll, made once per frame by the traversal engine.
  Status CheckRunnable() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("query cancelled");
    }
    if (deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline expired");
    }
    return Status::OK();
  }

  /// True when `st` (a failed page load) should degrade the search
  /// rather than abort it.
  bool ShouldDegrade(const Status& st) const {
    return degraded_ok &&
           (st.IsDataLoss() || st.IsCorruption() || st.IsIOError() ||
            st.IsOutOfRange());
  }
};

/// A qualifying leaf entry returned by search.
struct LeafHit {
  geom::Rect mbr;
  storage::Rid rid;
};

/// Per-window outcome of a batched search. `hits` is in exactly the
/// order the equivalent single-window search would produce; `degraded`
/// is per-window (a skipped subtree degrades only the windows that
/// were still active on that subtree's edge).
struct BatchHits {
  std::vector<LeafHit> hits;
  bool degraded = false;
};

/// Disk-resident R-tree over a buffer pool: Guttman's dynamic structure
/// (INSERT / DELETE / SEARCH) plus a bulk interface used by the PACK
/// loaders in src/pack/. Leaf entries carry Rids into a heap file (the
/// paper's pointers from picture objects to relation tuples).
class RTree {
 public:
  /// Create an empty tree.
  static StatusOr<RTree> Create(storage::BufferPool* pool,
                                const RTreeOptions& options = {});

  /// Create an empty tree on an ALREADY-ALLOCATED meta page, overwriting
  /// whatever it held — even if the old image is torn or unreadable. The
  /// WAL recovery path uses this to rebuild in place so the externally
  /// remembered meta page id stays valid across a crash.
  static StatusOr<RTree> CreateAt(storage::BufferPool* pool,
                                  storage::PageId meta_page,
                                  const RTreeOptions& options = {});

  /// Reattach to an existing tree by its meta page (options are persisted
  /// in the meta page).
  static StatusOr<RTree> Open(storage::BufferPool* pool,
                              storage::PageId meta_page);

  RTree(RTree&& other) noexcept { *this = std::move(other); }
  RTree& operator=(RTree&& other) noexcept {
    if (this != &other) {
      pool_ = other.pool_;
      meta_page_ = other.meta_page_;
      root_height_.store(other.root_height_.load());
      size_.store(other.size_.load());
      options_ = other.options_;
      concurrent_reads_.store(other.concurrent_reads_.load());
      retire_hook_ = std::move(other.retire_hook_);
    }
    return *this;
  }
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // --- Dynamic updates (Guttman 1984) -----------------------------------

  /// Insert a spatial object with bounding box `mbr` referencing `rid`.
  Status Insert(const geom::Rect& mbr, const storage::Rid& rid);

  /// Remove the entry with exactly this (mbr, rid); NotFound if absent.
  /// Underfull nodes are condensed and their entries re-inserted.
  Status Delete(const geom::Rect& mbr, const storage::Rid& rid);

  /// Move an entry: Delete(old) followed by Insert(new), with a
  /// best-effort re-insert of the old entry if the insert fails so the
  /// object is not silently lost. NOT atomic at this layer — the WAL
  /// layer (wal::DurableRTree) makes it a single logged record.
  Status Update(const geom::Rect& old_mbr, const storage::Rid& old_rid,
                const geom::Rect& new_mbr, const storage::Rid& new_rid);

  /// Exact-match membership probe (FindLeaf without the delete): true iff
  /// some leaf holds exactly (mbr, rid).
  StatusOr<bool> Contains(const geom::Rect& mbr,
                          const storage::Rid& rid) const;

  // --- Search (§3.1) ------------------------------------------------------

  /// All leaf entries whose MBR intersects `window` (the paper's
  /// INTERSECTS pruning with WITHIN replaced by intersection at the leaf —
  /// callers needing strict containment use SearchContainedIn).
  StatusOr<std::vector<LeafHit>> SearchIntersects(
      const geom::Rect& window, SearchStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// All leaf entries whose MBR lies entirely within `window` — the
  /// paper's SEARCH procedure (INTERSECTS to prune, WITHIN to qualify).
  StatusOr<std::vector<LeafHit>> SearchContainedIn(
      const geom::Rect& window, SearchStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Leaf entries whose MBR contains the query point — the Table 1 query
  /// "Is point (x,y) contained in the database?".
  StatusOr<std::vector<LeafHit>> SearchPoint(
      const geom::Point& p, SearchStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Batched window search: every window is answered in ONE descent,
  /// amortizing pin/unpin and node decode across the batch. A node is
  /// visited once if ANY window reaches it; at each visited node the
  /// simd kernels test all entries against each still-active window
  /// and only windows that intersect an entry descend into its child.
  /// Result `out[i]` is bit-identical (hits and order) to
  /// SearchIntersects(windows[i]) — or SearchContainedIn when
  /// `contained_only` — run back to back on a quiesced tree.
  ///
  /// `stats` aggregates over the whole batch: nodes_visited counts
  /// distinct node visits (the amortization being bought),
  /// entries_tested and results sum over windows.
  StatusOr<std::vector<BatchHits>> SearchBatch(
      std::span<const geom::Rect> windows, bool contained_only = false,
      SearchStats* stats = nullptr, const SearchOptions& options = {}) const;

  /// Leaf entries whose MBR contains `probe` (the COVERING candidate
  /// filter): interior entries are pruned the same way, since a child
  /// can only hold a covering entry if its bound covers the probe too.
  StatusOr<std::vector<LeafHit>> SearchContaining(
      const geom::Rect& probe, SearchStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  // --- Introspection ------------------------------------------------------

  /// Height of the tree; 1 means the root is a leaf. (The paper's "depth"
  /// column counts edges: depth = Height() - 1.) Packed with root() in
  /// one atomic so a concurrent reader never observes a root page from
  /// one tree shape with the height of another.
  uint32_t Height() const {
    return static_cast<uint32_t>(root_height_.load() >> 32);
  }

  /// Number of leaf entries (spatial objects).
  uint64_t Size() const { return size_.load(); }

  /// Total nodes in the tree (the paper's N column).
  StatusOr<uint64_t> CountNodes() const;

  /// MBRs of all leaf nodes (not leaf entries) — inputs to the coverage
  /// and overlap metrics.
  StatusOr<std::vector<geom::Rect>> CollectLeafNodeMbrs() const {
    return CollectNodeMbrsAtLevel(0);
  }

  /// MBRs of all nodes at `level` (0 = leaves).
  StatusOr<std::vector<geom::Rect>> CollectNodeMbrsAtLevel(
      uint16_t level) const;

  /// All leaf entries in tree order.
  StatusOr<std::vector<LeafHit>> CollectAllEntries(
      SearchStats* stats = nullptr) const;

  const RTreeOptions& options() const { return options_; }
  /// The node fill bounds in force: the options' values, or the page
  /// capacity and half of it where those are 0.
  size_t MaxEntries() const;
  size_t MinEntries() const;
  storage::PageId meta_page() const { return meta_page_; }
  storage::PageId root() const {
    return static_cast<storage::PageId>(root_height_.load() & 0xFFFFFFFFu);
  }
  storage::BufferPool* pool() const { return pool_; }

  // --- Online-mutation support (used by wal::DurableRTree) ---------------

  /// Latch node reads/writes on the buffer pool's per-frame latches so
  /// queries may run concurrently with a (single, externally serialized)
  /// mutator. Off by default: the flag costs a shared-latch round trip
  /// per node visit, which offline builds and benches need not pay. Set
  /// it before concurrent traffic starts.
  void EnableConcurrentReads(bool on) { concurrent_reads_.store(on); }

  /// Divert page frees from the mutation paths (CondenseTree, root
  /// collapse) to `hook` instead of pool()->FreePage. The WAL layer uses
  /// this for epoch-deferred reclamation: a page a concurrent reader may
  /// still reach must not be reused until every such reader has left.
  /// Bulk paths (Clear, BulkSetRoot, re-PACK) still free directly — they
  /// require quiesced readers regardless.
  void SetPageRetireHook(std::function<Status(storage::PageId)> hook) {
    retire_hook_ = std::move(hook);
  }

  /// Decode the node stored at `id` into caller-owned scratch, so a
  /// caller reusing one SoaNode never allocates per node. Low-level
  /// access for tools that inspect single pages; searches and whole-tree
  /// checks go through rtree/traverse.h instead, which adds the level
  /// check.
  Status ReadNodePageSoa(storage::PageId id, SoaNode* out) const {
    return LoadNodeSoa(id, out);
  }

  // --- Bulk-load interface (used by src/pack/) ---------------------------

  /// Write a fully-formed node; returns its page id. Entries must not
  /// exceed max_entries.
  StatusOr<storage::PageId> BulkWriteNode(uint16_t level,
                                          const std::vector<Entry>& entries);

  /// Point the tree at a bulk-built root. `height` counts levels,
  /// `size` the number of leaf entries. Frees the previous root chain
  /// only if the tree was empty (the normal bulk-load case).
  Status BulkSetRoot(storage::PageId root, uint32_t height, uint64_t size);

  /// Free every node and reset to an empty tree (used by re-PACK).
  Status Clear();

  /// Reset to an empty tree WITHOUT traversing (and thus without
  /// reading) the old nodes — the recovery path when the old tree is
  /// partially unreadable. The caller is responsible for freeing
  /// whatever old pages are still readable (ScrubAndRepack does).
  Status ResetForRebuild();

  /// Attach a prebuilt subtree whose root node sits at `subtree_root`
  /// with level `subtree_level` and bounding box `mbr`, containing
  /// `leaf_entry_count` leaf entries. The entry is placed one level
  /// above the subtree root (splitting on overflow as usual). Requires
  /// Height() >= subtree_level + 2. Backbone of the paper's §4 "local
  /// reorganization" extension.
  Status InsertSubtree(storage::PageId subtree_root, const geom::Rect& mbr,
                       uint16_t subtree_level, uint64_t leaf_entry_count);

 private:
  // The shared read-path engine (rtree/traverse.h) reads root_height_
  // and calls LoadNodeSoa directly.
  template <typename Policy>
  friend class Traversal;

  RTree(storage::BufferPool* pool, storage::PageId meta_page,
        storage::PageId root, uint32_t height, uint64_t size,
        const RTreeOptions& options)
      : pool_(pool),
        meta_page_(meta_page),
        root_height_(Pack(root, height)),
        size_(size),
        options_(options) {}

  static uint64_t Pack(storage::PageId root, uint32_t height) {
    return (static_cast<uint64_t>(height) << 32) | root;
  }
  /// Publish a new root/height pair. Must happen AFTER the new root's
  /// bytes are written (the seq_cst store orders them for readers) and
  /// BEFORE any page unlinked by the same structural change is retired.
  void SetRootHeight(storage::PageId root, uint32_t height) {
    root_height_.store(Pack(root, height));
  }

  struct InsertResult {
    geom::Rect mbr;                 // updated MBR of the visited child
    bool split = false;
    geom::Rect split_mbr;           // MBR of the new sibling
    storage::PageId split_page = storage::kInvalidPageId;
  };

  /// Per-insertion state for forced reinsertion: which levels already
  /// reinserted (they split on the next overflow) and the evicted
  /// entries awaiting re-insertion.
  struct InsertContext {
    std::vector<bool> reinserted_at_level;
    std::vector<std::pair<uint16_t, Entry>> pending;
  };

  StatusOr<Node> LoadNode(storage::PageId id) const;
  /// SoA decode into caller-owned scratch (no per-node allocation after
  /// warm-up); same frame-latch discipline as LoadNode.
  Status LoadNodeSoa(storage::PageId id, SoaNode* out) const;
  Status StoreNode(storage::PageId id, const Node& node);
  Status PersistMeta();

  StatusOr<InsertResult> InsertRec(storage::PageId node_id,
                                   const Entry& entry, uint16_t target_level,
                                   uint16_t node_level, InsertContext* ctx);

  /// Insert an entry that must live at `target_level` (0 for leaf
  /// entries; >0 when re-inserting orphaned subtrees during condense).
  Status InsertAtLevel(const Entry& entry, uint16_t target_level);

  struct DeleteResult {
    bool found = false;
    bool drop_child = false;  // child became underfull and was dissolved
    geom::Rect mbr;           // updated MBR of the visited child
  };

  StatusOr<DeleteResult> DeleteRec(storage::PageId node_id,
                                   uint16_t node_level,
                                   const geom::Rect& mbr,
                                   const storage::Rid& rid,
                                   std::vector<std::pair<uint16_t, Entry>>*
                                       orphans);

  /// Free `id` through the retire hook when set, else immediately.
  Status RetirePage(storage::PageId id);

  storage::BufferPool* pool_;
  storage::PageId meta_page_;
  /// (height << 32) | root, read together by concurrent queries.
  std::atomic<uint64_t> root_height_;
  std::atomic<uint64_t> size_;
  RTreeOptions options_;
  std::atomic<bool> concurrent_reads_{false};
  std::function<Status(storage::PageId)> retire_hook_;
};

}  // namespace pictdb::rtree

#endif  // PICTDB_RTREE_RTREE_H_
