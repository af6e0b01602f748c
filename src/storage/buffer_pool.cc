#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace pictdb::storage {

PageGuard::PageGuard(BufferPool* pool, PageId id, char* data,
                     std::atomic<bool>* dirty_flag, size_t frame_idx)
    : pool_(pool),
      id_(id),
      data_(data),
      dirty_flag_(dirty_flag),
      frame_idx_(frame_idx) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      id_(other.id_),
      data_(other.data_),
      dirty_flag_(other.dirty_flag_),
      frame_idx_(other.frame_idx_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_flag_ = other.dirty_flag_;
    frame_idx_ = other.frame_idx_;
    other.pool_ = nullptr;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_idx_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity, size_t shards,
                       const BufferPoolOptions& options)
    : disk_(disk),
      capacity_(capacity),
      options_(options),
      shards_(std::max<size_t>(1, std::min(shards, capacity))),
      jitter_rng_(options.retry_jitter_seed) {
  PICTDB_CHECK(capacity_ >= 1);
  PICTDB_CHECK(!options_.checksum_pages ||
               disk_->page_size() > 2 * kPageTrailerSize)
      << "page size too small for a checksum trailer";
  frames_ = std::make_unique<Frame[]>(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<char[]>(disk_->page_size());
  }
  // Each shard's free list hands out its frames in increasing index
  // order (so with one shard the allocation order matches the
  // historical single-threaded pool exactly). The locks are not yet
  // contended, but Shard's guarded members are owned by Shard, not by
  // the pool, so the constructor still acquires them.
  for (size_t i = 0; i < capacity_; ++i) {
    const size_t idx = capacity_ - 1 - i;
    Shard& shard = shards_[idx % shards_.size()];
    MutexLock lock(&shard.mu);
    shard.free_frames.push_back(idx);
  }
}

BufferPool::~BufferPool() {
  // Pin-leak check: every guard must have been released (or explicitly
  // leaked) by now; a live pin here means some caller lost track of a
  // page reference.
  const size_t leaked = pinned_frames();
  if (leaked > 0) {
    stats_.pin_leaks.store(leaked, std::memory_order_relaxed);
    if (options_.pin_leak_gauge != nullptr) {
      options_.pin_leak_gauge->fetch_add(leaked, std::memory_order_relaxed);
    }
    PICTDB_LOG_WARN() << leaked
                      << " page pin(s) still held at buffer pool "
                         "destruction";
    PICTDB_DCHECK(options_.tolerate_pin_leaks)
        << "buffer pool destroyed with " << leaked << " live pins";
  }
  // Best-effort flush; errors at teardown have nowhere to propagate,
  // but a failed final flush is dirty data that never reached disk —
  // silently swallowing it would hide real data loss, so log it.
  const Status flushed = FlushAll();
  if (!flushed.ok()) {
    PICTDB_LOG_WARN() << "final flush failed at buffer pool destruction: "
                      << flushed.ToString();
  }
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(&shards_[s].mu);
    for (size_t i = s; i < capacity_; i += shards_.size()) {
      const Frame& f = frames_[i];
      if (f.page_id != kInvalidPageId &&
          f.pin_count.load(std::memory_order_relaxed) > 0) {
        ++n;
      }
    }
  }
  return n;
}

void BufferPool::Unpin(size_t frame_idx) {
  Frame& frame = frames_[frame_idx];
  Shard& shard = ShardForFrame(frame_idx);
  MutexLock lock(&shard.mu);
  const int prev = frame.pin_count.fetch_sub(1, std::memory_order_relaxed);
  PICTDB_CHECK(prev > 0) << "unpin of unpinned page " << frame.page_id;
  if (prev == 1) {
    shard.lru.push_back(frame_idx);
    frame.lru_pos = std::prev(shard.lru.end());
    frame.in_lru = true;
  }
}

void BufferPool::Backoff(int attempt) {
  const auto base = options_.retry_backoff_base.count();
  if (base <= 0) return;
  auto window = base << std::min(attempt, 20);
  window = std::min<decltype(window)>(window,
                                      options_.retry_backoff_cap.count());
  uint64_t jitter;
  {
    MutexLock lock(&jitter_mu_);
    jitter = jitter_rng_.Uniform(static_cast<uint64_t>(window) + 1);
  }
  if (jitter > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(jitter));
  }
}

Status BufferPool::ReadPageWithRetry(PageId id, char* out) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_read_retries; ++attempt) {
    if (attempt > 0) {
      stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    last = disk_->ReadPage(id, out);
    if (last.ok()) {
      if (!options_.checksum_pages) return Status::OK();
      last = VerifyPageTrailer(out, disk_->page_size(), id);
      if (last.ok()) return Status::OK();
      // A checksum failure may be a transient in-flight bit flip:
      // re-reading can clear it. Persistent corruption exhausts the
      // retry budget and propagates as DataLoss.
      stats_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
    } else if (!last.IsIOError() && !last.IsDataLoss()) {
      return last;  // not transient by contract (e.g. OutOfRange)
    }
  }
  return last;
}

Status BufferPool::WritePageWithRetry(PageId id, char* data) {
  if (options_.checksum_pages) {
    StampPageTrailer(data, disk_->page_size());
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_write_retries; ++attempt) {
    if (attempt > 0) {
      stats_.write_retries.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt - 1);
    }
    last = disk_->WritePage(id, data);
    if (last.ok() || !last.IsIOError()) return last;
  }
  return last;
}

StatusOr<size_t> BufferPool::GetVictimFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    const size_t idx = shard.free_frames.back();
    shard.free_frames.pop_back();
    return idx;
  }
  if (shard.lru.empty()) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames of the shard pinned");
  }
  const size_t idx = shard.lru.front();
  shard.lru.pop_front();
  Frame& frame = frames_[idx];
  frame.in_lru = false;
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  if (frame.dirty.load(std::memory_order_relaxed)) {
    // Written back under the shard lock: the victim must not be readable
    // from disk in its stale form once it leaves the page table.
    PICTDB_RETURN_IF_ERROR(
        WritePageWithRetry(frame.page_id, frame.data.get()));
    stats_.flushes.fetch_add(1, std::memory_order_relaxed);
    frame.dirty.store(false, std::memory_order_relaxed);
  }
  shard.page_table.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  return idx;
}

PageGuard BufferPool::PinFrame(Shard& shard, size_t frame_idx) {
  Frame& frame = frames_[frame_idx];
  if (frame.pin_count.load(std::memory_order_relaxed) == 0 &&
      frame.in_lru) {
    shard.lru.erase(frame.lru_pos);
    frame.in_lru = false;
  }
  frame.pin_count.fetch_add(1, std::memory_order_relaxed);
  return PageGuard(this, frame.page_id, frame.data.get(), &frame.dirty,
                   frame_idx);
}

StatusOr<size_t> BufferPool::ClaimFrameLocked(Shard& shard, PageId id) {
  PICTDB_ASSIGN_OR_RETURN(const size_t idx, GetVictimFrame(shard));
  Frame& frame = frames_[idx];
  frame.page_id = id;
  frame.pin_count.store(1, std::memory_order_relaxed);
  shard.page_table[id] = idx;
  return idx;
}

StatusOr<PageGuard> BufferPool::FetchPageImpl(PageId id,
                                              bool overwrite_on_error) {
  Shard& shard = ShardForPage(id);
  // Explicit Lock/Unlock (not an RAII guard): the miss path hands the
  // lock back around its disk read, and the analysis checks that every
  // return below balances the acquire.
  shard.mu.Lock();
  stats_.fetches.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    auto it = shard.page_table.find(id);
    if (it == shard.page_table.end()) break;
    Frame& frame = frames_[it->second];
    if (frame.loading) {
      // Another thread is reading this page in; wait and re-probe (the
      // load may fail, in which case the entry disappears).
      shard.load_cv.Wait(&shard.mu);
      continue;
    }
    PageGuard guard = PinFrame(shard, it->second);
    shard.mu.Unlock();
    return guard;
  }

  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  StatusOr<size_t> claimed = ClaimFrameLocked(shard, id);
  if (!claimed.ok()) {
    shard.mu.Unlock();
    return std::move(claimed).status();
  }
  const size_t idx = claimed.value();
  Frame& frame = frames_[idx];
  frame.loading = true;
  shard.mu.Unlock();
  // The frame is pinned and flagged, so it cannot be evicted or handed
  // out while the read runs without the lock.
  const Status read = ReadPageWithRetry(id, frame.data.get());
  shard.mu.Lock();
  frame.loading = false;
  if (!read.ok()) {
    if (overwrite_on_error &&
        (read.IsDataLoss() || read.IsCorruption() || read.IsIOError())) {
      // Recovery caller will rewrite the whole page; hand out a zeroed
      // dirty frame instead of surfacing the torn/rotten on-disk image.
      std::memset(frame.data.get(), 0, disk_->page_size());
      frame.dirty.store(true, std::memory_order_relaxed);
      shard.load_cv.NotifyAll();
      shard.mu.Unlock();
      return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
    }
    shard.page_table.erase(id);
    frame.page_id = kInvalidPageId;
    frame.pin_count.store(0, std::memory_order_relaxed);
    shard.free_frames.push_back(idx);
    shard.load_cv.NotifyAll();
    shard.mu.Unlock();
    return read;
  }
  frame.dirty.store(false, std::memory_order_relaxed);
  shard.load_cv.NotifyAll();
  shard.mu.Unlock();
  return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
}

StatusOr<PageGuard> BufferPool::FetchPage(PageId id) {
  return FetchPageImpl(id, /*overwrite_on_error=*/false);
}

StatusOr<PageGuard> BufferPool::FetchPageForOverwrite(PageId id) {
  return FetchPageImpl(id, /*overwrite_on_error=*/true);
}

StatusOr<PageGuard> BufferPool::NewPage() {
  const PageId id = disk_->AllocatePage();
  Shard& shard = ShardForPage(id);
  MutexLock lock(&shard.mu);
  PICTDB_ASSIGN_OR_RETURN(const size_t idx, ClaimFrameLocked(shard, id));
  Frame& frame = frames_[idx];
  std::memset(frame.data.get(), 0, disk_->page_size());
  // Must reach disk even if never written again.
  frame.dirty.store(true, std::memory_order_relaxed);
  return PageGuard(this, id, frame.data.get(), &frame.dirty, idx);
}

Status BufferPool::FreePage(PageId id) {
  Shard& shard = ShardForPage(id);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      const size_t idx = it->second;
      Frame& frame = frames_[idx];
      if (frame.pin_count.load(std::memory_order_relaxed) > 0) {
        return Status::InvalidArgument("freeing pinned page " +
                                       std::to_string(id));
      }
      if (frame.in_lru) {
        shard.lru.erase(frame.lru_pos);
        frame.in_lru = false;
      }
      frame.page_id = kInvalidPageId;
      frame.dirty.store(false, std::memory_order_relaxed);
      shard.page_table.erase(it);
      shard.free_frames.push_back(idx);
    }
  }
  disk_->DeallocatePage(id);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    MutexLock lock(&shards_[s].mu);
    for (size_t i = s; i < capacity_; i += shards_.size()) {
      Frame& frame = frames_[i];
      if (frame.page_id != kInvalidPageId &&
          frame.dirty.load(std::memory_order_relaxed)) {
        PICTDB_RETURN_IF_ERROR(
            WritePageWithRetry(frame.page_id, frame.data.get()));
        frame.dirty.store(false, std::memory_order_relaxed);
        stats_.flushes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

}  // namespace pictdb::storage
