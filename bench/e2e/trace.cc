#include "trace.h"

#include <chrono>

namespace pictdb::bench {
namespace {

// The open span of this thread (0 = none) and its request id.
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_req = 0;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    MutexLock lock(&mu_);
    buffer->thread_tag = buffers_.size() + 1;
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void Tracer::Push(Span span) { LocalBuffer()->spans.push_back(span); }

Tracer::Scope::Scope(const char* name, uint64_t req) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  ThreadBuffer* buffer = tracer.LocalBuffer();
  active_ = true;
  span_.id = (buffer->thread_tag << 40) | ++buffer->next_local;
  span_.req = req;
  span_.parent = tl_parent;
  span_.name = name;
  saved_parent_ = tl_parent;
  saved_req_ = tl_req;
  tl_parent = span_.id;
  tl_req = req;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_req = saved_req_;
  Tracer::Get().Push(span_);
}

void Tracer::RecordChild(const char* name, uint64_t start_ns,
                         uint64_t end_ns) {
  if (tl_parent == 0) return;
  ThreadBuffer* buffer = LocalBuffer();
  Span span;
  span.id = (buffer->thread_tag << 40) | ++buffer->next_local;
  span.req = tl_req;
  span.parent = tl_parent;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::TakeAll() {
  MutexLock lock(&mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

Status TimingDiskManager::ReadPage(storage::PageId id, char* out) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return base_->ReadPage(id, out);
  const uint64_t start = NowNs();
  Status st = base_->ReadPage(id, out);
  tracer.RecordChild("storage.disk.read", start, NowNs());
  return st;
}

Status TimingDiskManager::WritePage(storage::PageId id, const char* data) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return base_->WritePage(id, data);
  const uint64_t start = NowNs();
  Status st = base_->WritePage(id, data);
  tracer.RecordChild("storage.disk.write", start, NowNs());
  return st;
}

Status TimingDiskManager::Sync() {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return base_->Sync();
  const uint64_t start = NowNs();
  Status st = base_->Sync();
  tracer.RecordChild("storage.disk.sync", start, NowNs());
  return st;
}

}  // namespace pictdb::bench
