#ifndef PICTDB_SERVICE_QUERY_SERVICE_H_
#define PICTDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status_or.h"
#include "psql/executor.h"
#include "rtree/join.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "service/metrics.h"
#include "storage/quarantine.h"

namespace pictdb::wal {
class DurableRTree;
}  // namespace pictdb::wal

namespace pictdb::service {

/// Window search over the shared tree: all leaf entries intersecting
/// `window`, or strictly contained in it (the paper's SEARCH) when
/// `contained_only` is set.
struct WindowQuery {
  geom::Rect window;
  bool contained_only = false;
};

/// The Table 1 query "is point (x,y) contained in the database?".
struct PointQuery {
  geom::Point point;
};

/// Branch-and-bound k nearest neighbours of `point`.
struct KnnQuery {
  geom::Point point;
  size_t k = 1;
};

/// Juxtaposition of the shared tree with another (immutable) tree; the
/// result is the number of intersecting leaf pairs.
struct JoinQuery {
  const rtree::RTree* other = nullptr;
};

/// A PSQL select mapping, evaluated through the shared executor.
struct PsqlQuery {
  std::string text;
};

/// Many window searches pushed through one shared tree descent
/// (RTree::SearchBatch): a node read near the root is paid once for
/// every window that reaches it instead of once per window. Each
/// window's hits are bit-identical (including order) to submitting it
/// as a WindowQuery.
struct BatchWindowQuery {
  std::vector<geom::Rect> windows;
  bool contained_only = false;
};

using Query = std::variant<WindowQuery, PointQuery, KnnQuery, JoinQuery,
                           PsqlQuery, BatchWindowQuery>;

// Per-variant metrics (kQueryVariantNames) index by std::variant order.
static_assert(std::variant_size_v<Query> == kQueryVariants,
              "kQueryVariantNames must track the Query alternatives");

// --- Write operations (require a bound wal::DurableRTree) --------------

struct InsertOp {
  geom::Rect mbr;
  storage::Rid rid;
};

struct DeleteOp {
  geom::Rect mbr;
  storage::Rid rid;
};

struct UpdateOp {
  geom::Rect old_mbr;
  storage::Rid old_rid;
  geom::Rect new_mbr;
  storage::Rid new_rid;
};

/// Alternative order is the WriteMetrics kind index (insert=0, delete=1,
/// update=2).
using WriteOp = std::variant<InsertOp, DeleteOp, UpdateOp>;

/// Outcome of one query. Which member is filled depends on the variant:
/// hits for window/point, neighbors for knn, join_pairs for join, table
/// for psql, batch for batch-window. `stats` and `latency_us` are
/// always populated.
struct QueryResult {
  std::vector<rtree::LeafHit> hits;
  std::vector<rtree::Neighbor> neighbors;
  uint64_t join_pairs = 0;
  std::optional<psql::ResultSet> table;
  /// Per-window results, batch[i] for windows[i] (batch queries only).
  std::vector<rtree::BatchHits> batch;
  rtree::SearchStats stats;
  uint64_t latency_us = 0;
  /// True when unreadable subtrees were skipped: the result is partial.
  bool degraded = false;
  /// How many subtrees were skipped (0 unless degraded).
  uint64_t skipped_subtrees = 0;
};

/// Per-query execution controls.
struct QueryOptions {
  /// Wall-clock budget measured from the RunSync() call; 0 = no
  /// deadline. Expiry fails the query with Status::DeadlineExceeded.
  std::chrono::microseconds timeout{0};
  /// Skip unreadable/corrupt subtrees (quarantining their pages) and
  /// return partial results flagged `degraded` instead of failing.
  bool degraded_ok = false;
};

struct ServiceOptions {
  /// Serving threads that a net::Server over this service starts. The
  /// service itself owns no threads.
  size_t num_threads = 4;
};

/// Concurrent query service over one shared packed R-tree (and,
/// optionally, a PSQL executor over a shared catalog).
///
/// Concurrency model: with no writer bound the tree is immutable after
/// PACK, so any number of caller threads traverse it simultaneously
/// through the thread-safe buffer pool with no tree-level latching at
/// all — the pool's shard mutexes are the only locks on the read path.
/// Binding a wal::DurableRTree (BindWriter, before traffic starts) turns
/// on the online-mutation mode: write ops are serialized through the
/// durable tree's commit lock while queries keep running — each query
/// then brackets its traversal with an epoch guard (pages unlinked by a
/// concurrent restructuring are not reused until the reader leaves) and
/// node reads take the per-frame latches the mutator writes under.
/// Re-PACK of the served tree still requires quiescing the service.
///
/// One way in: RunSync() runs the query to completion on the calling
/// thread. The service owns no threads and no queue; callers that want
/// concurrency bring their own threads (the network server's serving
/// threads) and so bound it with their own thread count.
class QueryService {
 public:
  /// `tree` must outlive the service. `executor` may be null when no
  /// PSQL queries will be run; it must be used read-only for the
  /// service's lifetime.
  QueryService(const rtree::RTree* tree, const psql::Executor* executor,
               const ServiceOptions& options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Run `query` to completion on the calling thread: deadline,
  /// cancellation, the writer's epoch guard, then metrics. After
  /// Shutdown() the query is refused with InvalidArgument and counted
  /// in `rejected`; otherwise errors come from execution.
  StatusOr<QueryResult> RunSync(const Query& query,
                                const QueryOptions& options = {});

  // --- Write path ---------------------------------------------------------

  /// Enable logged mutations through `writer`, whose tree() must be the
  /// same tree this service was constructed over. Call once, before any
  /// traffic — queries start taking epoch guards from this point on.
  void BindWriter(wal::DurableRTree* writer) { writer_ = writer; }

  /// Run after every successfully committed write, on the committing
  /// thread (the network server wires result-cache invalidation here).
  /// Set before traffic starts, like BindWriter.
  void SetCommitHook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Execute one write on the calling thread (writes are serialized by
  /// the durable tree's commit lock; the network server calls this from
  /// its serving threads). NotSupported without a
  /// bound writer; NotFound when a delete/update precondition misses.
  Status ExecuteWrite(const WriteOp& op);

  /// Write-path counters (separate from Metrics(): the query snapshot's
  /// wire encoding predates writes and stays byte-compatible).
  WriteMetricsSnapshot write_metrics() const {
    return write_metrics_.Snapshot();
  }

  /// Cooperatively cancel every running query: each fails with
  /// DeadlineExceeded at its next per-node poll. Queries started
  /// afterwards also fail until ClearCancel().
  void CancelAll() { cancel_all_.store(true, std::memory_order_relaxed); }
  void ClearCancel() { cancel_all_.store(false, std::memory_order_relaxed); }

  /// Pages quarantined by degraded-mode queries (input to recovery via
  /// pack::ScrubAndRepack).
  storage::PageQuarantine* quarantine() { return &quarantine_; }

  /// Refuse every later RunSync(). Queries already running finish
  /// normally; nothing is joined, since the service owns no threads.
  /// Idempotent. Writes are not affected.
  void Shutdown() { shut_down_.store(true, std::memory_order_release); }

  /// Service-level aggregation of per-query accounting.
  ServiceMetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  const ServiceOptions& options() const { return options_; }

 private:
  /// The one execution path behind RunSync: deadline from the call +
  /// `options.timeout`, CancelAll, the writer's epoch guard, Dispatch,
  /// then completion metrics.
  StatusOr<QueryResult> RunAdmitted(const Query& query,
                                    const QueryOptions& options);
  StatusOr<QueryResult> Dispatch(const Query& query,
                                 const rtree::SearchOptions& search_options);

  const rtree::RTree* tree_;
  const psql::Executor* executor_;
  /// Non-null once BindWriter ran; enables ExecuteWrite and makes every
  /// query traversal epoch-guarded.
  wal::DurableRTree* writer_ = nullptr;
  std::function<void()> commit_hook_;
  ServiceOptions options_;
  ServiceMetrics metrics_;
  WriteMetrics write_metrics_;
  std::atomic<bool> cancel_all_{false};
  std::atomic<bool> shut_down_{false};
  storage::PageQuarantine quarantine_;
};

}  // namespace pictdb::service

#endif  // PICTDB_SERVICE_QUERY_SERVICE_H_
