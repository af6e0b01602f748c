#ifndef PICTDB_STORAGE_DISK_MANAGER_H_
#define PICTDB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/status_or.h"
#include "storage/page.h"

namespace pictdb::storage {

/// Plain-value image of the I/O counters.
struct DiskStatsSnapshot {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
};

/// Counters exposed by every disk manager; benchmarks report these to show
/// the physical I/O difference between packed and unpacked trees. Atomic
/// so concurrent queries can issue page I/O without racing on accounting.
struct DiskStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> allocations{0};

  DiskStatsSnapshot Snapshot() const {
    DiskStatsSnapshot s;
    s.reads = reads.load(std::memory_order_relaxed);
    s.writes = writes.load(std::memory_order_relaxed);
    s.allocations = allocations.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    reads.store(0, std::memory_order_relaxed);
    writes.store(0, std::memory_order_relaxed);
    allocations.store(0, std::memory_order_relaxed);
  }
};

/// Backing store of fixed-size pages. Implementations must support random
/// page reads/writes and appending fresh pages, and must be safe to call
/// from multiple threads (the buffer pool issues page I/O concurrently).
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Bytes per page; constant over the manager's lifetime.
  virtual uint32_t page_size() const = 0;

  /// Number of pages ever allocated (page ids are dense in [0, count)).
  virtual PageId page_count() const = 0;

  /// Copy page `id` into `out` (page_size bytes).
  virtual Status ReadPage(PageId id, char* out) = 0;

  /// Persist page `id` from `data` (page_size bytes).
  virtual Status WritePage(PageId id, const char* data) = 0;

  /// Append a zero-initialized page; returns its id.
  virtual PageId AllocatePage() = 0;

  /// Return a page to the free list; it may be handed out again by
  /// AllocatePage. Freed pages keep their storage. Out-of-range ids and
  /// double frees are logged and ignored (never corrupt the free list).
  virtual void DeallocatePage(PageId id) = 0;

  /// Durability barrier: after Sync() returns OK, every completed
  /// WritePage survives a crash. The WAL syncs before it acknowledges a
  /// commit or switches its anchor, DurableRTree syncs the tree pages
  /// before it logs a clean shutdown, and an external-sort spill run
  /// ends with a sync. No-op for stores without writer-side buffering.
  [[nodiscard]] virtual Status Sync() { return Status::OK(); }

  const DiskStats& stats() const { return stats_; }
  DiskStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

 protected:
  DiskStats stats_;
};

/// Pages held in RAM. The default substrate for experiments: the paper's
/// metrics (nodes visited, coverage, overlap) are I/O-model metrics, so a
/// memory store reproduces them exactly while staying fast. Page content
/// access takes a shared lock; allocation takes an exclusive one.
class InMemoryDiskManager final : public DiskManager {
 public:
  explicit InMemoryDiskManager(uint32_t page_size = kDefaultPageSize);

  uint32_t page_size() const override { return page_size_; }
  PageId page_count() const override EXCLUDES(mu_) {
    ReaderMutexLock lock(&mu_);
    return static_cast<PageId>(pages_.size());
  }
  Status ReadPage(PageId id, char* out) override EXCLUDES(mu_);
  Status WritePage(PageId id, const char* data) override EXCLUDES(mu_);
  PageId AllocatePage() override EXCLUDES(mu_);
  void DeallocatePage(PageId id) override EXCLUDES(mu_);

 private:
  uint32_t page_size_;
  mutable SharedMutex mu_;
  std::vector<std::unique_ptr<char[]>> pages_ GUARDED_BY(mu_);
  std::vector<PageId> free_list_ GUARDED_BY(mu_);
  // Mirrors free_list_ for O(1) double-free detection.
  std::unordered_set<PageId> free_set_ GUARDED_BY(mu_);
};

/// Pages stored in a file on disk, for durability demonstrations and for
/// measuring real I/O. A single mutex serializes all file access (stdio
/// seek+read pairs are not thread-safe).
class FileDiskManager final : public DiskManager {
 public:
  /// Creates or opens `path`. A new file is truncated to zero pages.
  static StatusOr<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path, uint32_t page_size = kDefaultPageSize,
      bool truncate = true);

  ~FileDiskManager() override;

  FileDiskManager(const FileDiskManager&) = delete;
  FileDiskManager& operator=(const FileDiskManager&) = delete;

  uint32_t page_size() const override { return page_size_; }
  PageId page_count() const override EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return page_count_;
  }
  Status ReadPage(PageId id, char* out) override EXCLUDES(mu_);
  Status WritePage(PageId id, const char* data) override EXCLUDES(mu_);
  PageId AllocatePage() override EXCLUDES(mu_);
  void DeallocatePage(PageId id) override EXCLUDES(mu_);
  /// Flushes stdio buffers and fsyncs, so a page a WAL commit or a
  /// DurableRTree checkpoint counts on is on the medium, not still in
  /// this process's FILE buffer.
  Status Sync() override EXCLUDES(mu_);

 private:
  FileDiskManager(std::FILE* file, uint32_t page_size, PageId page_count)
      : file_(file), page_size_(page_size), page_count_(page_count) {}

  mutable Mutex mu_;
  std::FILE* file_ GUARDED_BY(mu_);  // stdio seek+read is not atomic
  uint32_t page_size_;
  PageId page_count_ GUARDED_BY(mu_);
  std::vector<PageId> free_list_ GUARDED_BY(mu_);
  // Mirrors free_list_ for O(1) double-free detection.
  std::unordered_set<PageId> free_set_ GUARDED_BY(mu_);
};

/// Decorator that adds a fixed latency to every page read/write of an
/// underlying manager. Models the paper's disk-resident setting (a page
/// touch costs a seek) so concurrency experiments observe realistic I/O
/// stalls: threads blocked on simulated seeks overlap, which is exactly
/// the win a concurrent query service extracts from a disk array.
class LatencyDiskManager final : public DiskManager {
 public:
  LatencyDiskManager(DiskManager* base,
                     std::chrono::microseconds read_latency,
                     std::chrono::microseconds write_latency);

  uint32_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }
  Status ReadPage(PageId id, char* out) override;
  Status WritePage(PageId id, const char* data) override;
  PageId AllocatePage() override;
  void DeallocatePage(PageId id) override;
  Status Sync() override { return base_->Sync(); }

 private:
  DiskManager* base_;
  std::chrono::microseconds read_latency_;
  std::chrono::microseconds write_latency_;
};

}  // namespace pictdb::storage

#endif  // PICTDB_STORAGE_DISK_MANAGER_H_
