#include "service/query_service.h"

#include <chrono>
#include <utility>

#include "storage/epoch.h"
#include "wal/durable_tree.h"

namespace pictdb::service {

namespace {

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

QueryService::QueryService(const rtree::RTree* tree,
                           const psql::Executor* executor,
                           const ServiceOptions& options)
    : tree_(tree),
      executor_(executor),
      options_(options) {}

StatusOr<QueryResult> QueryService::Dispatch(
    const Query& query, const rtree::SearchOptions& search_options) {
  QueryResult result;
  if (const auto* w = std::get_if<WindowQuery>(&query)) {
    PICTDB_ASSIGN_OR_RETURN(
        result.hits,
        w->contained_only
            ? tree_->SearchContainedIn(w->window, &result.stats,
                                       search_options)
            : tree_->SearchIntersects(w->window, &result.stats,
                                      search_options));
  } else if (const auto* p = std::get_if<PointQuery>(&query)) {
    PICTDB_ASSIGN_OR_RETURN(
        result.hits,
        tree_->SearchPoint(p->point, &result.stats, search_options));
  } else if (const auto* k = std::get_if<KnnQuery>(&query)) {
    PICTDB_ASSIGN_OR_RETURN(
        result.neighbors,
        rtree::SearchNearest(*tree_, k->point, k->k, &result.stats,
                             search_options));
  } else if (const auto* j = std::get_if<JoinQuery>(&query)) {
    if (j->other == nullptr) {
      return Status::InvalidArgument("join query without a right tree");
    }
    rtree::JoinStats join_stats;
    uint64_t pairs = 0;
    PICTDB_RETURN_IF_ERROR(rtree::SpatialJoin(
        *tree_, *j->other,
        [&pairs](const rtree::LeafHit&, const rtree::LeafHit&) { ++pairs; },
        &join_stats, search_options));
    result.join_pairs = pairs;
    result.stats.nodes_visited = join_stats.nodes_visited;
    result.stats.entries_tested = join_stats.pairs_tested;
    result.stats.results = join_stats.results;
    result.stats.skipped_subtrees = join_stats.skipped_subtrees;
    result.stats.degraded = join_stats.degraded;
  } else if (const auto* b = std::get_if<BatchWindowQuery>(&query)) {
    PICTDB_ASSIGN_OR_RETURN(
        result.batch,
        tree_->SearchBatch(b->windows, b->contained_only, &result.stats,
                           search_options));
  } else if (const auto* q = std::get_if<PsqlQuery>(&query)) {
    if (executor_ == nullptr) {
      return Status::InvalidArgument(
          "service was built without a PSQL executor");
    }
    // The PSQL executor has no cooperative poll points yet, so the
    // deadline/cancel check happens only at dispatch.
    PICTDB_RETURN_IF_ERROR(search_options.CheckRunnable());
    PICTDB_ASSIGN_OR_RETURN(psql::ResultSet rs, executor_->Query(q->text));
    result.stats.nodes_visited = rs.stats.rtree_nodes_visited;
    result.stats.results = rs.stats.rows_emitted;
    result.table = std::move(rs);
  }
  result.degraded = result.stats.degraded;
  result.skipped_subtrees = result.stats.skipped_subtrees;
  return result;
}

StatusOr<QueryResult> QueryService::RunAdmitted(
    const Query& query, const QueryOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  rtree::SearchOptions search_options;
  if (options.timeout.count() > 0) {
    search_options.deadline = start + options.timeout;
  }
  search_options.cancel = &cancel_all_;
  search_options.degraded_ok = options.degraded_ok;
  search_options.quarantine = &quarantine_;

  const size_t variant = query.index();
  // With a writer bound, pin the reclamation epoch for the whole
  // traversal: pages a concurrent mutation unlinks stay allocated until
  // this guard is released.
  storage::EpochGate::ReadGuard epoch_guard;
  if (writer_ != nullptr) epoch_guard = writer_->ReaderEpoch();
  StatusOr<QueryResult> outcome = Dispatch(query, search_options);
  epoch_guard.Release();
  const uint64_t latency_us = ElapsedMicros(start);
  if (outcome.ok()) {
    outcome.value().latency_us = latency_us;
    uint64_t results = outcome.value().stats.results;
    if (results == 0) {
      results = outcome.value().hits.size() +
                outcome.value().neighbors.size() +
                outcome.value().join_pairs;
    }
    metrics_.RecordCompleted(variant, latency_us,
                             outcome.value().stats.nodes_visited, results);
    if (outcome.value().degraded) metrics_.RecordDegraded();
  } else {
    metrics_.RecordFailed(variant, latency_us);
    if (outcome.status().IsDeadlineExceeded()) {
      metrics_.RecordDeadlineExceeded();
    }
  }
  return outcome;
}

StatusOr<QueryResult> QueryService::RunSync(const Query& query,
                                            const QueryOptions& options) {
  if (shut_down_.load(std::memory_order_acquire)) {
    metrics_.RecordRejected();
    return Status::InvalidArgument("query service is shut down");
  }
  metrics_.RecordSubmitted();
  return RunAdmitted(query, options);
}

Status QueryService::ExecuteWrite(const WriteOp& op) {
  if (writer_ == nullptr) {
    return Status::NotSupported(
        "service has no writer bound (BindWriter a wal::DurableRTree)");
  }
  const auto start = std::chrono::steady_clock::now();
  const size_t kind = op.index();
  struct Visitor {
    wal::DurableRTree* writer;
    Status operator()(const InsertOp& w) {
      return writer->Insert(w.mbr, w.rid);
    }
    Status operator()(const DeleteOp& w) {
      return writer->Delete(w.mbr, w.rid);
    }
    Status operator()(const UpdateOp& w) {
      return writer->Update(w.old_mbr, w.old_rid, w.new_mbr, w.new_rid);
    }
  };
  const Status st = std::visit(Visitor{writer_}, op);
  const uint64_t latency_us = ElapsedMicros(start);
  if (st.ok()) {
    write_metrics_.RecordCommitted(kind, latency_us);
    if (commit_hook_) commit_hook_();
  } else if (st.IsNotFound()) {
    write_metrics_.RecordNotFound();
  } else {
    write_metrics_.RecordFailed();
  }
  return st;
}

}  // namespace pictdb::service
