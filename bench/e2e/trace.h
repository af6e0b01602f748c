#ifndef PICTDB_BENCH_E2E_TRACE_H_
#define PICTDB_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "storage/disk_manager.h"

namespace pictdb::bench {

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t NowNs();

/// One timed interval at a layer boundary. Spans of one request share
/// `req`; `parent` is the id of the span that caused this one (0 for a
/// root span). Names are static strings: "net.call", "rtree.call", ...
struct Span {
  uint64_t id = 0;
  uint64_t req = 0;
  uint64_t parent = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Process-wide span recorder. Spans go into per-thread buffers (no lock
/// on the recording path) and are collected after the recording threads
/// have been joined. Recording happens only around calls the benchmark
/// makes into a layer's public entry point, and, through
/// TimingDiskManager, around page I/O issued on a thread that has a span
/// open — so disk spans nest under the replay span that caused them.
class Tracer {
 public:
  static Tracer& Get();

  /// Gates all recording, including the disk decorator's clock reads.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span: while alive it is the parent of spans opened or recorded
  /// on the same thread. A no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(const char* name, uint64_t req);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_req_ = 0;
  };

  /// Record a finished child of this thread's open span, if it has one.
  void RecordChild(const char* name, uint64_t start_ns, uint64_t end_ns);

  /// Move out every recorded span. Recording threads must have finished.
  std::vector<Span> TakeAll() EXCLUDES(mu_);

 private:
  struct ThreadBuffer {
    uint64_t thread_tag = 0;
    uint64_t next_local = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* LocalBuffer() EXCLUDES(mu_);
  void Push(Span span);

  std::atomic<bool> enabled_{false};
  Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
};

/// Decorator at the disk seam, between the page file and the buffer
/// pool (and under the WAL, which talks to the disk manager directly).
/// With the tracer enabled it times ReadPage / WritePage / Sync and
/// records them as storage.disk.read|write|sync children of the calling
/// thread's open span; otherwise it only forwards.
class TimingDiskManager final : public storage::DiskManager {
 public:
  explicit TimingDiskManager(storage::DiskManager* base) : base_(base) {}

  uint32_t page_size() const override { return base_->page_size(); }
  storage::PageId page_count() const override { return base_->page_count(); }
  Status ReadPage(storage::PageId id, char* out) override;
  Status WritePage(storage::PageId id, const char* data) override;
  storage::PageId AllocatePage() override { return base_->AllocatePage(); }
  void DeallocatePage(storage::PageId id) override {
    base_->DeallocatePage(id);
  }
  Status Sync() override;

 private:
  storage::DiskManager* base_;
};

}  // namespace pictdb::bench

#endif  // PICTDB_BENCH_E2E_TRACE_H_
