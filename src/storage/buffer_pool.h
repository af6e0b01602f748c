#ifndef PICTDB_STORAGE_BUFFER_POOL_H_
#define PICTDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/status_or.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace pictdb::storage {

/// Plain-value image of the pool counters, safe to copy and compare.
struct BufferPoolStatsSnapshot {
  uint64_t fetches = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  uint64_t checksum_failures = 0;
  uint64_t pin_leaks = 0;
};

/// Counters for cache behaviour; the difference between `fetches` and
/// `misses` shows how well the LRU pool absorbs a workload's page touches.
/// Counters are atomic so concurrent readers never race with fetches;
/// use Snapshot() to read a consistent plain-struct copy.
struct BufferPoolStats {
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> flushes{0};
  /// Transient I/O errors and checksum failures absorbed by re-reading.
  std::atomic<uint64_t> read_retries{0};
  /// Transient I/O errors absorbed by re-writing (flush / eviction).
  std::atomic<uint64_t> write_retries{0};
  /// Miss reads whose page trailer failed verification (pre-retry).
  std::atomic<uint64_t> checksum_failures{0};
  /// Pins still held when the pool was destroyed (gauge, set once).
  std::atomic<uint64_t> pin_leaks{0};

  BufferPoolStatsSnapshot Snapshot() const {
    BufferPoolStatsSnapshot s;
    s.fetches = fetches.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    s.flushes = flushes.load(std::memory_order_relaxed);
    s.read_retries = read_retries.load(std::memory_order_relaxed);
    s.write_retries = write_retries.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
    s.pin_leaks = pin_leaks.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    fetches.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    flushes.store(0, std::memory_order_relaxed);
    read_retries.store(0, std::memory_order_relaxed);
    write_retries.store(0, std::memory_order_relaxed);
    checksum_failures.store(0, std::memory_order_relaxed);
    pin_leaks.store(0, std::memory_order_relaxed);
  }
};

/// Fault-tolerance knobs. The defaults give every pool page checksums
/// and a short bounded retry envelope; tests tune them down (or off) to
/// exercise specific failure modes.
struct BufferPoolOptions {
  /// Reserve the last kPageTrailerSize bytes of each page for a
  /// magic+CRC32 trailer, stamped on flush and verified on miss reads.
  /// page_size() excludes the trailer, so consumers shrink accordingly.
  bool checksum_pages = true;

  /// Retries after the first failed attempt of a miss read (transient
  /// IOError or checksum failure) / of a flush write (IOError). 0
  /// disables retrying.
  int max_read_retries = 4;
  int max_write_retries = 4;

  /// Exponential backoff between attempts: sleep Uniform(0, min(base <<
  /// attempt, cap)) — full jitter, deterministic per pool (seeded).
  std::chrono::microseconds retry_backoff_base{50};
  std::chrono::microseconds retry_backoff_cap{2000};
  uint64_t retry_jitter_seed = 0x9e3779b9u;

  /// Destruction with live pins trips a debug assertion unless set.
  /// (The pin-leak test sets it and observes the gauge instead.)
  bool tolerate_pin_leaks = false;

  /// Optional external gauge also incremented by leaked-pin detection at
  /// destruction (the pool's own stats die with it).
  std::atomic<uint64_t>* pin_leak_gauge = nullptr;
};

class BufferPool;

/// RAII pin on a buffered page. While alive the frame cannot be evicted;
/// mutation must go through mutable_data(), which marks the page dirty.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, char* data,
            std::atomic<bool>* dirty_flag, size_t frame_idx);
  ~PageGuard();

  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const char* data() const { return data_; }
  char* mutable_data() {
    dirty_flag_->store(true, std::memory_order_relaxed);
    return data_;
  }

  /// Unpin early (before destruction).
  void Release();

  /// Index of the pinned frame; key for BufferPool::LatchFor.
  size_t frame_index() const { return frame_idx_; }

  /// Abandon the pin WITHOUT unpinning — the frame stays pinned forever.
  /// Only for tests of the pool's leak detection and for crash paths
  /// that must not touch a possibly-dead pool.
  void Leak() { pool_ = nullptr; }

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  std::atomic<bool>* dirty_flag_ = nullptr;
  size_t frame_idx_ = 0;
};

/// Fixed-capacity page cache over a DiskManager with LRU replacement.
///
/// Thread-safe: the frame table is split into `shards` independent
/// mini-pools (page id -> shard by modulo), each with its own mutex,
/// page table, LRU list and free list. Pin counts are atomic; a miss
/// performs its disk read outside the shard lock (the frame is pinned
/// and flagged as loading, so concurrent fetchers of the same page wait
/// on the shard's condition variable while other pages proceed).
/// With shards == 1 (the default) eviction order is byte-identical to
/// the historical single-threaded pool.
///
/// Fault tolerance: pages carry a CRC32 trailer stamped on flush and
/// verified on miss reads (torn writes and bit rot surface as
/// Status::DataLoss); transient read/write errors are absorbed by a
/// bounded exponential-backoff retry loop; permanent errors propagate
/// to the caller as the failing Status.
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory; `shards`
  /// the number of independently locked partitions (clamped to
  /// capacity).
  BufferPool(DiskManager* disk, size_t capacity, size_t shards = 1,
             const BufferPoolOptions& options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin page `id`, reading it from disk on a miss.
  StatusOr<PageGuard> FetchPage(PageId id);

  /// FetchPage variant for recovery paths that are about to rewrite the
  /// page wholesale: a miss read that fails with a data error (torn
  /// write, bit rot, transient I/O) yields a zero-filled dirty frame
  /// instead of failing the fetch. Never use it to *read* a page — the
  /// zeroed content is only meaningful to a caller that overwrites it.
  StatusOr<PageGuard> FetchPageForOverwrite(PageId id);

  /// Allocate a fresh zeroed page and pin it.
  StatusOr<PageGuard> NewPage();

  /// Drop the page from the pool (without writing it back) and return it
  /// to the disk manager's free list. The page must not be pinned.
  Status FreePage(PageId id);

  /// Write all dirty frames back to disk.
  Status FlushAll();

  DiskManager* disk() const { return disk_; }

  /// Bytes of each page usable by consumers — the disk page size minus
  /// the checksum trailer (when enabled).
  uint32_t page_size() const {
    return disk_->page_size() -
           (options_.checksum_pages ? kPageTrailerSize : 0);
  }

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  const BufferPoolOptions& options() const { return options_; }
  const BufferPoolStats& stats() const { return stats_; }
  BufferPoolStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Number of currently pinned frames (for tests / leak detection).
  size_t pinned_frames() const;

  /// Reader/writer latch of the frame pinned by `guard`. Writers that
  /// mutate page bytes while concurrent readers may be copying them
  /// (the R-tree's online mutation path) take it exclusive around the
  /// byte write; readers take it shared around the copy. The latch
  /// belongs to the frame — hold it only while the pin is alive, and
  /// never across a fetch of another page (latches are leaf locks in
  /// the DESIGN.md §10 hierarchy).
  SharedMutex* LatchFor(const PageGuard& guard) {
    return &frames_[guard.frame_index()].latch;
  }

 private:
  friend class PageGuard;

  /// Non-atomic Frame fields (page_id, loading, lru_pos, in_lru) are
  /// guarded by the owning shard's mutex. That guard rotates with the
  /// frame index, so it cannot be named in a GUARDED_BY annotation —
  /// the per-shard containers below carry the static annotations, and
  /// TSan covers the frame fields dynamically.
  struct Frame {
    PageId page_id = kInvalidPageId;
    std::unique_ptr<char[]> data;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    /// True while a miss is reading this frame's page from disk outside
    /// the shard lock.
    bool loading = false;
    // Position in the shard's lru when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
    /// Guards the page *bytes* against concurrent read/write while the
    /// frame is pinned (see LatchFor). Orthogonal to the shard mutex,
    /// which guards the mapping, not the content.
    SharedMutex latch;
  };

  struct Shard {
    mutable Mutex mu;
    CondVar load_cv;  // signalled when `loading` clears
    std::unordered_map<PageId, size_t> page_table GUARDED_BY(mu);
    std::list<size_t> lru GUARDED_BY(mu);  // front = least recently used
    std::vector<size_t> free_frames GUARDED_BY(mu);
  };

  Shard& ShardForPage(PageId id) { return shards_[id % shards_.size()]; }
  Shard& ShardForFrame(size_t frame_idx) {
    return shards_[frame_idx % shards_.size()];
  }

  void Unpin(size_t frame_idx);
  /// May write a dirty victim back to disk.
  StatusOr<size_t> GetVictimFrame(Shard& shard) REQUIRES(shard.mu);
  /// Frame must hold a valid resident page.
  PageGuard PinFrame(Shard& shard, size_t frame_idx) REQUIRES(shard.mu);
  /// Claim a victim for `id`, pinned and marked loading.
  StatusOr<size_t> ClaimFrameLocked(Shard& shard, PageId id)
      REQUIRES(shard.mu);

  StatusOr<PageGuard> FetchPageImpl(PageId id, bool overwrite_on_error);

  /// Miss-path read with checksum verification and bounded
  /// exponential-backoff retry of transient failures.
  Status ReadPageWithRetry(PageId id, char* out);
  /// Flush-path write: stamps the trailer, retries transient IOErrors.
  Status WritePageWithRetry(PageId id, char* data);
  /// Sleep the backoff interval for `attempt` (0-based), with jitter.
  void Backoff(int attempt) EXCLUDES(jitter_mu_);

  DiskManager* disk_;
  size_t capacity_;
  BufferPoolOptions options_;
  std::unique_ptr<Frame[]> frames_;
  std::vector<Shard> shards_;
  BufferPoolStats stats_;
  Mutex jitter_mu_;
  Random jitter_rng_ GUARDED_BY(jitter_mu_);
};

}  // namespace pictdb::storage

#endif  // PICTDB_STORAGE_BUFFER_POOL_H_
