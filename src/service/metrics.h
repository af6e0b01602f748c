#ifndef PICTDB_SERVICE_METRICS_H_
#define PICTDB_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pictdb::service {

/// Query variants the service distinguishes for per-variant accounting.
/// Order matches the std::variant alternatives of service::Query
/// (query_service.h static_asserts the correspondence).
inline constexpr size_t kQueryVariants = 6;
inline constexpr const char* kQueryVariantNames[kQueryVariants] = {
    "window", "point", "knn", "join", "psql", "batch"};

/// Plain-value image of a LatencyHistogram: copyable, mergeable,
/// serializable. Buckets are log-linear (HdrHistogram-style): values
/// 0..7 are exact, then 8 sub-buckets per power of two, so the relative
/// quantization error is bounded by 12.5% at any magnitude. The last
/// bucket absorbs everything past ~2^35 (an hours-long latency is an
/// outage, not a measurement).
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 256;

  std::array<uint64_t, kBuckets> counts{};
  uint64_t sum = 0;
  uint64_t max = 0;

  /// Bucket index for a recorded value (shared with LatencyHistogram).
  static size_t BucketIndex(uint64_t v) {
    if (v < 8) return static_cast<size_t>(v);
    const int octave = std::bit_width(v) - 4;  // v >> octave is in [8,16)
    const size_t index =
        8 * static_cast<size_t>(octave) + static_cast<size_t>(v >> octave);
    return index < kBuckets ? index : kBuckets - 1;
  }

  /// Inclusive lower bound of bucket `i` (its reported representative).
  static uint64_t BucketLowerBound(size_t i) {
    if (i < 8) return i;
    const uint64_t octave = i / 8 - 1;
    return (i - 8 * octave) << octave;
  }

  uint64_t count() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }

  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum) / static_cast<double>(n);
  }

  /// Value at quantile q in [0,1] (lower bucket bound; q=1 returns the
  /// exact observed max). 0 when empty.
  uint64_t ValueAtQuantile(double q) const {
    const uint64_t n = count();
    if (n == 0) return 0;
    if (q >= 1.0) return max;
    if (q < 0.0) q = 0.0;
    // Rank of the q-th ordered sample, 1-based; ceil so q=0.5 of 2
    // samples picks the first.
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n));
    if (rank < n) ++rank;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen >= rank) return BucketLowerBound(i);
    }
    return max;
  }

  /// Pointwise sum: combine per-thread or per-variant histograms.
  void Merge(const HistogramSnapshot& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  /// "p50=12 p95=80 p99=200 max=512 n=1000" (values in recorded units).
  std::string Summary() const;
};

/// Thread-safe latency histogram: lock-free atomic buckets, recorded in
/// microseconds by convention. Snapshot() yields the plain struct above.
class LatencyHistogram {
 public:
  void Record(uint64_t value) {
    counts_[HistogramSnapshot::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value && !max_.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramSnapshot::kBuckets> counts_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Plain-value service counters, safe to copy, compare, and serialize.
struct ServiceMetricsSnapshot {
  uint64_t submitted = 0;  // RunSync calls accepted and run
  uint64_t rejected = 0;   // RunSync calls refused after Shutdown
  uint64_t completed = 0;  // finished with an OK result
  uint64_t failed = 0;     // finished with an error status
  uint64_t total_latency_us = 0;
  uint64_t max_latency_us = 0;
  uint64_t total_nodes_visited = 0;
  uint64_t total_results = 0;
  uint64_t deadline_exceeded = 0;  // failures due to deadline/cancel
  uint64_t degraded = 0;           // completions with partial results
  /// Service latency (execution on the calling thread, microseconds)
  /// per query variant, indexed per kQueryVariantNames. Failures are
  /// recorded too: a deadline expiry is latency the client observed.
  std::array<HistogramSnapshot, kQueryVariants> variant_latency{};

  /// All variants merged into one distribution.
  HistogramSnapshot TotalLatency() const {
    HistogramSnapshot total;
    for (const auto& h : variant_latency) total.Merge(h);
    return total;
  }

  uint64_t finished() const { return completed + failed; }
  double avg_latency_us() const {
    const uint64_t n = finished();
    return n == 0 ? 0.0
                  : static_cast<double>(total_latency_us) /
                        static_cast<double>(n);
  }
  double avg_nodes_visited() const {
    const uint64_t n = finished();
    return n == 0 ? 0.0
                  : static_cast<double>(total_nodes_visited) /
                        static_cast<double>(n);
  }
};

/// Lock-free aggregation of per-query accounting into a service-level
/// view. Querying threads record into atomics; Snapshot() produces the
/// plain struct above for reporting.
class ServiceMetrics {
 public:
  void RecordSubmitted() { Add(submitted_); }
  void RecordRejected() { Add(rejected_); }

  void RecordCompleted(size_t variant, uint64_t latency_us,
                       uint64_t nodes_visited, uint64_t results) {
    Add(completed_);
    total_latency_us_.fetch_add(latency_us, std::memory_order_relaxed);
    total_nodes_visited_.fetch_add(nodes_visited,
                                   std::memory_order_relaxed);
    total_results_.fetch_add(results, std::memory_order_relaxed);
    UpdateMax(latency_us);
    RecordVariantLatency(variant, latency_us);
  }

  void RecordFailed(size_t variant, uint64_t latency_us) {
    Add(failed_);
    total_latency_us_.fetch_add(latency_us, std::memory_order_relaxed);
    UpdateMax(latency_us);
    RecordVariantLatency(variant, latency_us);
  }

  /// The failure was a deadline expiry or cancellation (in addition to
  /// RecordFailed).
  void RecordDeadlineExceeded() { Add(deadline_exceeded_); }

  /// The completion skipped unreadable subtrees (in addition to
  /// RecordCompleted).
  void RecordDegraded() { Add(degraded_); }

  ServiceMetricsSnapshot Snapshot() const {
    ServiceMetricsSnapshot s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.total_latency_us = total_latency_us_.load(std::memory_order_relaxed);
    s.max_latency_us = max_latency_us_.load(std::memory_order_relaxed);
    s.total_nodes_visited =
        total_nodes_visited_.load(std::memory_order_relaxed);
    s.total_results = total_results_.load(std::memory_order_relaxed);
    s.deadline_exceeded =
        deadline_exceeded_.load(std::memory_order_relaxed);
    s.degraded = degraded_.load(std::memory_order_relaxed);
    for (size_t v = 0; v < kQueryVariants; ++v) {
      s.variant_latency[v] = variant_latency_[v].Snapshot();
    }
    return s;
  }

 private:
  static void Add(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordVariantLatency(size_t variant, uint64_t latency_us) {
    if (variant < kQueryVariants) {
      variant_latency_[variant].Record(latency_us);
    }
  }

  void UpdateMax(uint64_t latency_us) {
    uint64_t prev = max_latency_us_.load(std::memory_order_relaxed);
    while (prev < latency_us &&
           !max_latency_us_.compare_exchange_weak(
               prev, latency_us, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> total_latency_us_{0};
  std::atomic<uint64_t> max_latency_us_{0};
  std::atomic<uint64_t> total_nodes_visited_{0};
  std::atomic<uint64_t> total_results_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> degraded_{0};
  std::array<LatencyHistogram, kQueryVariants> variant_latency_{};
};

/// Plain-value image of the write-path counters. Writes are accounted
/// separately from queries on purpose: the query-side snapshot (and its
/// wire encoding in StatsResponse) predates online mutation and stays
/// byte-compatible.
struct WriteMetricsSnapshot {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
  /// Commit-path errors (log append/sync/apply); NotFound precondition
  /// misses are counted in `not_found`, not here.
  uint64_t failed = 0;
  uint64_t not_found = 0;
  /// Latency of successful commits (append + fsync + apply), in
  /// microseconds.
  HistogramSnapshot commit_latency;

  uint64_t committed() const { return inserts + deletes + updates; }
};

/// Lock-free write-path accounting, mirror of ServiceMetrics for the
/// mutation side.
class WriteMetrics {
 public:
  /// `kind` indexes the WriteOp variant order: insert, delete, update.
  void RecordCommitted(size_t kind, uint64_t latency_us) {
    switch (kind) {
      case 0: Add(inserts_); break;
      case 1: Add(deletes_); break;
      default: Add(updates_); break;
    }
    commit_latency_.Record(latency_us);
  }
  void RecordNotFound() { Add(not_found_); }
  void RecordFailed() { Add(failed_); }

  WriteMetricsSnapshot Snapshot() const {
    WriteMetricsSnapshot s;
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.deletes = deletes_.load(std::memory_order_relaxed);
    s.updates = updates_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.not_found = not_found_.load(std::memory_order_relaxed);
    s.commit_latency = commit_latency_.Snapshot();
    return s;
  }

 private:
  static void Add(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> not_found_{0};
  LatencyHistogram commit_latency_;
};

}  // namespace pictdb::service

#endif  // PICTDB_SERVICE_METRICS_H_
