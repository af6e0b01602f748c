// pictbench: the repository benchmark.
//
// Hosts the whole serving stack in its own process — FileDiskManager, a
// timing decorator at the disk seam, BufferPool, RTree (or
// wal::DurableRTree), QueryService and net::Server on a unix socket —
// and drives it over the wire from a few net::Client connections in a
// closed loop, checking every answer against a grid oracle. Because the
// benchmark owns every layer object it can measure each layer from the
// outside: public counters, the disk decorator, and replays of the same
// request stream through each layer's public entry point (--trace).
// See README.md for the workloads and metrics.
//
//   pictbench --workload=hot-read --seed=1 --seconds=10 [--trace] [--smoke]
//             [--workdir=DIR]
//
// The last stdout line is one JSON object,
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}},
// holding the end-to-end metrics, or with --trace the per-layer metrics;
// the line before it holds sample counts and diagnostics.
// Exit status: 0 every answer and check correct; 1 a wrong answer or a
// failed check; 2 a usage or setup error (no result line).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "callers.h"
#include "check/invariants.h"
#include "check/oracle.h"
#include "grid_oracle.h"
#include "net/client.h"
#include "net/server.h"
#include "pack/external.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "trace.h"
#include "wal/durable_tree.h"
#include "workload.h"

namespace pictdb::bench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_build/work";
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view name) -> std::optional<std::string> {
      const std::string prefix = "--" + std::string(name) + "=";
      if (arg.substr(0, prefix.size()) != prefix) return std::nullopt;
      return std::string(arg.substr(prefix.size()));
    };
    if (arg == "--trace") {
      flags->trace = true;
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (auto v = value("workload")) {
      flags->workload = *v;
    } else if (auto v = value("seed")) {
      flags->seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("seconds")) {
      flags->seconds = std::atof(v->c_str());
    } else if (auto v = value("workdir")) {
      flags->workdir = *v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (flags->workload.empty() || !(flags->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: pictbench --workload=NAME --seed=S --seconds=T "
                 "[--trace] [--smoke] [--workdir=DIR]\n");
    return false;
  }
  return true;
}

// --- The serving stack ---------------------------------------------------

/// Built bottom up as a deployment would: page file, disk-seam
/// decorator, buffer pool, tree, query service, wire server.
struct Stack {
  std::unique_ptr<storage::FileDiskManager> file;
  std::unique_ptr<TimingDiskManager> disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<rtree::RTree> tree;
  std::optional<rtree::RTree> overlay;
  std::unique_ptr<wal::DurableRTree> durable;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;  // last: stopped first

  ~Stack() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Shutdown();
  }

  const rtree::RTree& served() const {
    return durable != nullptr ? durable->tree() : *tree;
  }
  const rtree::RTree* overlay_tree() const {
    return overlay.has_value() ? &*overlay : nullptr;
  }
};

/// Pages of a Hilbert-packed tree of `objects` point entries (+ meta).
uint64_t PackedTreePages(uint64_t objects) {
  const uint64_t fanout = rtree::NodePageCapacity(
      storage::kDefaultPageSize - storage::kPageTrailerSize);
  uint64_t pages = 1;
  uint64_t level = objects;
  do {
    level = (level + fanout - 1) / fanout;
    pages += level;
  } while (level > 1);
  return pages;
}

size_t PoolFrames(const WorkloadSpec& spec) {
  if (spec.pool_frames > 0) return spec.pool_frames;
  return std::max<size_t>(
      64, static_cast<size_t>(spec.pool_fraction *
                              static_cast<double>(PackedTreePages(spec.objects))));
}

struct SetupSample {
  double total_s = 0.0;
  double pack_s = 0.0;
  double flush_s = 0.0;
  double start_s = 0.0;
  pack::ExternalPackStats pack;
};

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

std::string SocketPath(const Flags& flags) {
  return flags.workdir + "/pictbench.sock";
}

/// One timed set-up: from opening the page file to the first answered
/// ping. `durable_input` holds the base entries for DurableRTree::BulkLoad.
StatusOr<std::unique_ptr<Stack>> BuildStack(
    const WorkloadSpec& spec, const Flags& flags,
    const std::vector<rtree::Entry>& durable_input, SetupSample* sample) {
  auto stack = std::make_unique<Stack>();
  const uint64_t t0 = NowNs();
  {
    Tracer::Scope span("pack.build", 0);
    PICTDB_ASSIGN_OR_RETURN(
        stack->file,
        storage::FileDiskManager::Open(flags.workdir + "/tree.pages"));
    stack->disk = std::make_unique<TimingDiskManager>(stack->file.get());
    stack->pool = std::make_unique<storage::BufferPool>(stack->disk.get(),
                                                        PoolFrames(spec), 8);
    if (spec.durable) {
      PICTDB_ASSIGN_OR_RETURN(stack->durable,
                              wal::DurableRTree::Create(stack->pool.get()));
      PICTDB_RETURN_IF_ERROR(stack->durable->BulkLoad(durable_input));
    } else {
      pack::PackOptions options;
      options.criterion = pack::SortCriterion::kHilbert;
      options.strategy = pack::PackStrategy::kSortChunk;
      options.spill_dir = flags.workdir;
      if (spec.spill) {
        // A third of the input per sort buffer: three spilled runs.
        options.memory_budget_bytes =
            (spec.objects + 2) / 3 * pack::kSpillRecordSize;
      }
      PICTDB_ASSIGN_OR_RETURN(rtree::RTree tree,
                              rtree::RTree::Create(stack->pool.get()));
      stack->tree.emplace(std::move(tree));
      BasePointSource source(flags.seed, spec.objects);
      PICTDB_RETURN_IF_ERROR(
          pack::PackExternal(&*stack->tree, &source, options, &sample->pack));
      if (spec.overlay > 0) {
        std::vector<rtree::Entry> entries;
        const std::vector<geom::Rect> rects =
            OverlayRects(flags.seed, spec.overlay);
        for (size_t i = 0; i < rects.size(); ++i) {
          entries.push_back(rtree::Entry{
              rects[i], rtree::Entry::PayloadFromRid(storage::Rid{
                            static_cast<storage::PageId>(i + 1), 1})});
        }
        pack::VectorEntrySource overlay_source(&entries);
        PICTDB_ASSIGN_OR_RETURN(rtree::RTree overlay,
                                rtree::RTree::Create(stack->pool.get()));
        stack->overlay.emplace(std::move(overlay));
        PICTDB_RETURN_IF_ERROR(
            pack::PackExternal(&*stack->overlay, &overlay_source, options));
      }
    }
  }
  const uint64_t t1 = NowNs();
  {
    Tracer::Scope span("storage.flush", 0);
    PICTDB_RETURN_IF_ERROR(stack->pool->FlushAll());
    PICTDB_RETURN_IF_ERROR(stack->disk->Sync());
  }
  const uint64_t t2 = NowNs();
  {
    Tracer::Scope span("service.start", 0);
    service::ServiceOptions service_options;
    service_options.num_threads = 2;
    stack->service = std::make_unique<service::QueryService>(
        &stack->served(), nullptr, service_options);
    if (stack->durable != nullptr) {
      stack->service->BindWriter(stack->durable.get());
    }
    net::ServerOptions server_options;
    server_options.unix_path = SocketPath(flags);
    server_options.cache_bytes = 0;
    server_options.allow_writes = spec.writer;
    net::Server::Bindings bindings;
    bindings.service = stack->service.get();
    bindings.overlay = stack->overlay_tree();
    stack->server = std::make_unique<net::Server>(bindings, server_options);
    PICTDB_RETURN_IF_ERROR(stack->server->Start());
    PICTDB_ASSIGN_OR_RETURN(net::Client client,
                            net::Client::ConnectUnix(SocketPath(flags)));
    PICTDB_RETURN_IF_ERROR(client.Ping());
  }
  const uint64_t t3 = NowNs();
  sample->total_s = Seconds(t0, t3);
  sample->pack_s = Seconds(t0, t1);
  sample->flush_s = Seconds(t1, t2);
  sample->start_s = Seconds(t2, t3);
  return stack;
}

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Startup cross-check of the grid oracle ------------------------------

/// The grid oracle against the linear-scan check::Oracle on the first
/// requests of every kind: 64 at up to 100k objects, fewer above so the
/// scans stay within the same work (8 at 2M). Empty when they agree.
std::string CrossCheckOracle(const GridOracle& grid, const RequestPools& pools,
                             const std::vector<geom::Rect>& overlay) {
  std::vector<rtree::Entry> entries;
  entries.reserve(grid.points().size());
  for (size_t i = 0; i < grid.points().size(); ++i) {
    entries.push_back(
        rtree::Entry{geom::Rect::FromPoint(grid.points()[i]),
                     rtree::Entry::PayloadFromRid(BaseRid(i))});
  }
  const check::Oracle ref(std::move(entries));
  const size_t checked = std::clamp<size_t>(
      64 * 100'000 / std::max<size_t>(1, grid.points().size()), 8, 64);
  for (const auto& pool : pools) {
    for (size_t i = 0; i < std::min(checked, pool.size()); ++i) {
      const ReadRequest& r = pool[i];
      const std::string where =
          std::string(kReadKindNames[r.kind]) + " request " + std::to_string(i);
      switch (r.kind) {
        case kWindow:
          if (!(Digest::Of(ref.Intersects(r.window)) == r.digest)) {
            return where + ": grid and linear scan disagree";
          }
          break;
        case kPoint:
          if (!(Digest::Of(ref.AtPoint(r.point)) == r.digest)) {
            return where + ": grid and linear scan disagree";
          }
          break;
        case kKnn: {
          const auto nn = ref.Nearest(r.point, kKnnK);
          if (nn.size() != r.dists.size()) return where + ": knn size";
          for (size_t j = 0; j < nn.size(); ++j) {
            if (nn[j].distance != r.dists[j]) return where + ": knn distance";
          }
          break;
        }
        case kBatch:
          for (size_t j = 0; j < r.windows.size(); ++j) {
            if (!(Digest::Of(ref.Intersects(r.windows[j])) == r.batch[j])) {
              return where + ": batch window " + std::to_string(j);
            }
          }
          break;
        case kJoin: {
          std::vector<rtree::Entry> rects;
          for (const geom::Rect& rect : overlay) {
            rects.push_back(rtree::Entry{rect, 0});
          }
          if (ref.CountJoinPairs(check::Oracle(std::move(rects))) != r.pairs) {
            return where + ": pair count";
          }
          break;
        }
      }
    }
  }
  return "";
}

// --- Closed-loop phases ----------------------------------------------------

enum class Level { kWire, kService, kTree };

/// One measured request: when it completed and how long it took.
struct Sample {
  uint64_t end_ns = 0;
  uint64_t latency_ns = 0;
};

/// Slices hold at least this many reads, so each slice's p99 has 10
/// samples beyond it.
inline constexpr size_t kSliceSamples = 1000;
inline constexpr size_t kMaxSlices = 10;

struct ThreadOutcome {
  std::array<std::vector<Sample>, kReadKinds> reads;  // measured, correct
  std::vector<uint64_t> write_ns;       // measured, acknowledged
  std::vector<uint64_t> checkpoint_ns;  // commits that took a checkpoint
  uint64_t attempted = 0;  // measured requests
  uint64_t failed = 0;     // measured requests not answered correctly
  uint64_t bad = 0;        // any request not answered correctly, warm-up too
  rtree::SearchStats stats;  // summed over measured correct reads
  uint64_t last_end_ns = 0;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    ++bad;
    if (problems.size() < 4) problems.push_back(std::move(what));
  }
};

struct PhaseResult {
  std::vector<ThreadOutcome> threads;
  std::vector<Span> spans;
  uint64_t measure_start_ns = 0;
  uint64_t measure_end_ns = 0;
  storage::BufferPoolStatsSnapshot pool_before, pool_after;
  storage::DiskStatsSnapshot disk_before, disk_after;
  uint64_t rejected_before = 0, rejected_after = 0;
  wal::WalStats wal_before, wal_after;
  uint64_t checkpoints_before = 0, checkpoints_after = 0;

  double window_s() const { return Seconds(measure_start_ns, measure_end_ns); }

  std::vector<uint64_t> Reads(std::optional<size_t> kind = std::nullopt) const {
    std::vector<uint64_t> all;
    for (const ThreadOutcome& t : threads) {
      for (size_t k = 0; k < kReadKinds; ++k) {
        if (kind.has_value() && *kind != k) continue;
        for (const Sample& s : t.reads[k]) all.push_back(s.latency_ns);
      }
    }
    return all;
  }

  /// Read latencies of the measured window cut into equal time slices
  /// by completion time: at most kMaxSlices, and as many as leave at
  /// least kSliceSamples reads in every slice (one slice if none do).
  /// Medians over slices shrug off a stall that hits a few seconds of a
  /// run.
  std::vector<std::vector<uint64_t>> ReadSlices() const {
    size_t n = 0;
    for (const ThreadOutcome& t : threads) {
      for (const auto& kind : t.reads) n += kind.size();
    }
    const double span = static_cast<double>(
        std::max<uint64_t>(1, measure_end_ns - measure_start_ns));
    for (size_t count =
             std::clamp<size_t>(n / (2 * kSliceSamples), 1, kMaxSlices);
         ; --count) {
      std::vector<std::vector<uint64_t>> slices(count);
      for (const ThreadOutcome& t : threads) {
        for (const auto& kind : t.reads) {
          for (const Sample& s : kind) {
            const double at =
                static_cast<double>(s.end_ns - measure_start_ns) / span;
            slices[std::min(count - 1, static_cast<size_t>(at * count))]
                .push_back(s.latency_ns);
          }
        }
      }
      const bool full = std::all_of(
          slices.begin(), slices.end(),
          [](const auto& slice) { return slice.size() >= kSliceSamples; });
      if (full || count == 1) return slices;
    }
  }
  std::vector<uint64_t> Writes() const {
    std::vector<uint64_t> all;
    for (const ThreadOutcome& t : threads) {
      all.insert(all.end(), t.write_ns.begin(), t.write_ns.end());
    }
    return all;
  }
  uint64_t Sum(uint64_t ThreadOutcome::*field) const {
    uint64_t n = 0;
    for (const ThreadOutcome& t : threads) n += t.*field;
    return n;
  }
};

/// read-write: no read runs while a commit runs. A reader overlapping a
/// commit that restructures nodes can miss objects the commit never
/// touched (README.md, "Known defect"), so the benchmark keeps reads and
/// commits apart to keep every read exactly checkable. Turns alternate:
/// after each commit every active reader completes a read before the
/// writer may commit again, and reads wait while a commit waits or runs.
class CommitGate {
 public:
  explicit CommitGate(size_t readers) : active_readers_(readers) {}

  void BeginRead() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (writer_turn_) cv_.Wait(&mu_);
    ++reading_;
  }
  void EndRead() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    --reading_;
    ++reads_since_commit_;
    cv_.NotifyAll();
  }
  /// A reader thread is done for the phase: the writer stops waiting on it.
  void LeaveReader() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    --active_readers_;
    cv_.NotifyAll();
  }
  void BeginWrite() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (reads_since_commit_ < active_readers_) cv_.Wait(&mu_);
    writer_turn_ = true;
    while (reading_ > 0) cv_.Wait(&mu_);
  }
  void EndWrite() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    writer_turn_ = false;
    reads_since_commit_ = 0;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t active_readers_ GUARDED_BY(mu_);
  size_t reading_ GUARDED_BY(mu_) = 0;
  size_t reads_since_commit_ GUARDED_BY(mu_) = 0;
  bool writer_turn_ GUARDED_BY(mu_) = false;
};

struct Context {
  const Flags* flags = nullptr;
  const WorkloadSpec* spec = nullptr;
  Stack* stack = nullptr;
  const GridOracle* oracle = nullptr;
  const RequestPools* pools = nullptr;
  Writer* writer = nullptr;  // read-write only
};

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// What one caller thread of a phase needs.
struct LoopArgs {
  const Context* ctx = nullptr;
  Caller* caller = nullptr;
  uint64_t stream_seed = 0;
  const char* span = "";
  bool traced = false;
  uint64_t measure_start = 0;
  uint64_t end = 0;
  CommitGate* gate = nullptr;  // read-write only
  ThreadOutcome* out = nullptr;
};

void ReaderLoop(const LoopArgs& a) {
  const Context& ctx = *a.ctx;
  ThreadOutcome* out = a.out;
  ReadStream stream(ctx.pools, ctx.spec->mix, a.stream_seed);
  while (true) {
    const uint64_t now = NowNs();
    if (now >= a.end) break;
    const bool measuring = now >= a.measure_start;
    const ReadRequest& request = stream.Next();
    Answer answer;
    Status status;
    if (a.gate != nullptr) a.gate->BeginRead();
    const uint64_t t0 = NowNs();
    {
      std::optional<Tracer::Scope> scope;
      if (a.traced && measuring) scope.emplace(a.span, NextRequestId());
      status = a.caller->Read(request, &answer);
    }
    const uint64_t t1 = NowNs();
    if (a.gate != nullptr) a.gate->EndRead();
    std::string problem =
        status.ok() ? CheckAnswer(request, answer) : status.ToString();
    if (!problem.empty() && status.ok()) {
      // Full diff, only now that the digest check failed.
      const auto got = a.caller->LastHitPayloads();
      if (request.kind == kWindow || request.kind == kPoint) {
        const geom::Rect w = request.kind == kWindow
                                 ? request.window
                                 : geom::Rect::FromPoint(request.point);
        if (!got.empty()) problem += "; " + DiffHits(*ctx.oracle, w, got[0]);
      } else if (request.kind == kBatch) {
        for (size_t j = 0; j < got.size() && j < request.windows.size(); ++j) {
          if (!(answer.batch[j] == request.batch[j])) {
            problem +=
                "; " + DiffHits(*ctx.oracle, request.windows[j], got[j]);
            break;
          }
        }
      }
    }
    if (!problem.empty()) {
      out->Problem(std::string(a.span) + " " + kReadKindNames[request.kind] +
                   ": " + problem);
    }
    if (!measuring) continue;
    ++out->attempted;
    out->last_end_ns = t1;
    if (!problem.empty()) {
      ++out->failed;
      continue;
    }
    out->reads[request.kind].push_back(Sample{t1, t1 - t0});
    out->stats.nodes_visited += answer.stats.nodes_visited;
    out->stats.entries_tested += answer.stats.entries_tested;
    out->stats.results += answer.stats.results;
  }
  if (a.gate != nullptr) a.gate->LeaveReader();
}

void WriterLoop(const LoopArgs& a) {
  Writer* writer = a.ctx->writer;
  ThreadOutcome* out = a.out;
  Random rng(a.stream_seed);
  while (true) {
    const uint64_t now = NowNs();
    if (now >= a.end) break;
    const bool measuring = now >= a.measure_start;
    const WriteOp op = writer->Next(&rng);
    const uint64_t checkpoints = a.caller->Checkpoints();
    Status status;
    a.gate->BeginWrite();
    const uint64_t t0 = NowNs();
    {
      std::optional<Tracer::Scope> scope;
      if (a.traced && measuring) scope.emplace(a.span, NextRequestId());
      status = a.caller->Write(op);
    }
    const uint64_t t1 = NowNs();
    a.gate->EndWrite();
    if (measuring) {
      ++out->attempted;
      out->last_end_ns = t1;
    }
    if (!status.ok()) {
      // The writer's view of the tree is no longer certain: stop writing.
      if (measuring) ++out->failed;
      out->Problem(std::string(a.span) + " write: " + status.ToString());
      break;
    }
    writer->Acknowledge(op);
    if (!measuring) continue;
    out->write_ns.push_back(t1 - t0);
    if (a.caller->Checkpoints() > checkpoints) {
      out->checkpoint_ns.push_back(t1 - t0);
    }
  }
}

/// One closed-loop replay of the workload's request stream at `level`:
/// kReaders reader threads plus the writer, each with its own
/// caller, `warmup_s` of warm-up then `measure_s` measured.
StatusOr<PhaseResult> RunPhase(const Context& ctx, Level level, bool traced,
                               double warmup_s, double measure_s) {
  Stack& stack = *ctx.stack;
  const char* read_span = "net.call";
  const char* write_span = "net.call";
  if (level == Level::kService) read_span = write_span = "service.call";
  if (level == Level::kTree) {
    read_span = "rtree.call";
    write_span = "wal.commit";
  }
  const size_t threads = kReaders + (ctx.spec->writer ? 1 : 0);
  std::vector<std::unique_ptr<Caller>> callers;
  for (size_t i = 0; i < threads; ++i) {
    switch (level) {
      case Level::kWire: {
        PICTDB_ASSIGN_OR_RETURN(auto caller,
                                ConnectWire(SocketPath(*ctx.flags)));
        callers.push_back(std::move(caller));
        break;
      }
      case Level::kService:
        callers.push_back(
            ServiceCaller(stack.service.get(), stack.overlay_tree()));
        break;
      case Level::kTree:
        callers.push_back(TreeCaller(&stack.served(), stack.overlay_tree(),
                                     stack.durable.get()));
        break;
    }
  }
  std::optional<CommitGate> gate;
  if (ctx.spec->writer) gate.emplace(kReaders);

  PhaseResult result;
  result.threads.resize(threads);
  Tracer::Get().Enable(traced);
  const uint64_t start = NowNs();
  result.measure_start_ns = start + static_cast<uint64_t>(warmup_s * 1e9);
  const uint64_t end =
      result.measure_start_ns + static_cast<uint64_t>(measure_s * 1e9);
  std::vector<std::thread> workers;
  for (size_t i = 0; i < threads; ++i) {
    const bool is_writer = i == kReaders;
    LoopArgs args;
    args.ctx = &ctx;
    args.caller = callers[i].get();
    // Same seeds at every level: each level replays the same streams.
    args.stream_seed = ctx.flags->seed * 1000003 + i * 7919 + 17;
    args.span = is_writer ? write_span : read_span;
    args.traced = traced;
    args.measure_start = result.measure_start_ns;
    args.end = end;
    args.gate = gate.has_value() ? &*gate : nullptr;
    args.out = &result.threads[i];
    workers.emplace_back(is_writer ? WriterLoop : ReaderLoop, args);
  }
  const auto snapshot = [&](bool before) {
    (before ? result.pool_before : result.pool_after) =
        stack.pool->StatsSnapshot();
    (before ? result.disk_before : result.disk_after) =
        stack.file->StatsSnapshot();
    (before ? result.rejected_before : result.rejected_after) =
        stack.service->Metrics().rejected;
    if (stack.durable != nullptr) {
      (before ? result.wal_before : result.wal_after) =
          stack.durable->wal_stats();
      (before ? result.checkpoints_before : result.checkpoints_after) =
          stack.durable->stats().checkpoints;
    }
  };
  if (const uint64_t now = NowNs(); now < result.measure_start_ns) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(result.measure_start_ns - now));
  }
  snapshot(true);
  for (std::thread& w : workers) w.join();
  snapshot(false);
  Tracer::Get().Enable(false);
  result.measure_end_ns = result.measure_start_ns;
  for (const ThreadOutcome& t : result.threads) {
    result.measure_end_ns = std::max(result.measure_end_ns, t.last_end_ns);
  }
  result.spans = Tracer::Get().TakeAll();
  return result;
}

// --- End-of-run checks ----------------------------------------------------

/// read-write: the strip the writer owns must hold exactly the base
/// objects there plus the writer's acknowledged live set, and the tree
/// must pass the structural validator. Empty when both hold.
std::string CheckWritePath(const Context& ctx) {
  const geom::Rect frame = Frame();
  const geom::Rect strip(ctx.spec->strip_x, frame.lo.y, frame.hi.x,
                         frame.hi.y);
  Digest want = ctx.oracle->WindowDigest(strip);
  for (const Writer::Object& o : ctx.writer->live()) want.Add(o.rid, o.mbr);
  const rtree::RTree& tree = ctx.stack->served();
  auto hits = tree.SearchIntersects(strip);
  if (!hits.ok()) return "strip search failed: " + hits.status().ToString();
  const Digest got = Digest::Of(*hits);
  if (!(got == want)) {
    return "strip holds " + std::to_string(got.count) + " objects, want " +
           std::to_string(want.count) + " (base + acknowledged writes)";
  }
  const check::ValidationReport report = check::TreeValidator().Check(tree);
  if (!report.ok()) return "TreeValidator: " + report.ToString();
  return "";
}

/// Mean ns of one RTree::ReadNodePageSoa on a resident page: nodes taken
/// breadth-first from the root (every node of a small tree), each read
/// once to make it resident, then decoded repeatedly.
double DecodeNsPerNode(const rtree::RTree& tree) {
  constexpr size_t kMaxNodes = 4096;
  constexpr int kRepeats = 16;
  std::vector<storage::PageId> ids = {tree.root()};
  rtree::SoaNode node;
  for (size_t i = 0; i < ids.size() && ids.size() < kMaxNodes; ++i) {
    if (!tree.ReadNodePageSoa(ids[i], &node).ok()) return 0.0;
    if (node.is_leaf()) continue;
    for (size_t c = 0; c < node.count() && ids.size() < kMaxNodes; ++c) {
      ids.push_back(node.ChildAt(c));
    }
  }
  uint64_t total_ns = 0;
  for (storage::PageId id : ids) {
    if (!tree.ReadNodePageSoa(id, &node).ok()) return 0.0;
    const uint64_t start = NowNs();
    for (int r = 0; r < kRepeats; ++r) {
      if (!tree.ReadNodePageSoa(id, &node).ok()) return 0.0;
    }
    total_ns += NowNs() - start;
  }
  return static_cast<double>(total_ns) /
         static_cast<double>(ids.size() * kRepeats);
}

// --- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double MeanUs(const std::vector<uint64_t>& ns) {
  double sum = 0.0;
  for (uint64_t v : ns) sum += static_cast<double>(v);
  return Ratio(sum, static_cast<double>(ns.size())) / 1e3;
}

/// 1-based rank of the q-th percentile among n samples.
size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

/// Exact order statistic: the smallest sample with at least q * n
/// samples at or below it. 0 when empty.
double PercentileUs(std::vector<uint64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  const size_t k = Rank(ns.size(), q) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) / 1e3;
}

/// Samples strictly beyond the q-th percentile: a percentile is reported
/// only when at least 10 lie beyond it.
size_t SamplesBeyond(size_t n, double q) { return n == 0 ? 0 : n - Rank(n, q); }

template <typename T, typename F>
double Median(const std::vector<T>& items, F&& value) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(value(item));
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  return v.size() % 2 == 1 ? v[v.size() / 2]
                           : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
}

/// Aggregates of the spans named `name` and of their child spans.
struct SpanSummary {
  uint64_t calls = 0;
  uint64_t call_ns = 0;
  uint64_t self_ns = 0;  // call time not covered by children
  uint64_t disk_writes = 0;
  uint64_t disk_syncs = 0;
  uint64_t disk_sync_ns = 0;
  std::vector<uint64_t> disk_read_ns;
  uint64_t disk_read_total_ns = 0;
};

SpanSummary Summarize(const std::vector<Span>& spans, std::string_view name) {
  SpanSummary s;
  std::unordered_set<uint64_t> ids;
  for (const Span& span : spans) {
    if (name == span.name) ids.insert(span.id);
  }
  std::unordered_map<uint64_t, uint64_t> covered;
  for (const Span& span : spans) {
    if (span.parent == 0 || ids.count(span.parent) == 0) continue;
    const uint64_t dur = span.end_ns - span.start_ns;
    covered[span.parent] += dur;
    const std::string_view child = span.name;
    if (child == "storage.disk.read") {
      s.disk_read_ns.push_back(dur);
      s.disk_read_total_ns += dur;
    } else if (child == "storage.disk.write") {
      ++s.disk_writes;
    } else if (child == "storage.disk.sync") {
      ++s.disk_syncs;
      s.disk_sync_ns += dur;
    }
  }
  for (const Span& span : spans) {
    if (name != span.name) continue;
    const uint64_t dur = span.end_ns - span.start_ns;
    ++s.calls;
    s.call_ns += dur;
    s.self_ns += dur - std::min(dur, covered[span.id]);
  }
  return s;
}

struct RunData {
  const WorkloadSpec* spec = nullptr;
  std::vector<SetupSample> setups;
  double peak_rss_mib = 0.0;
  double bytes_per_object = 0.0;
  std::vector<PhaseResult> phases;  // untraced: {wire}; traced: wire,
                                    // wire traced, service, tree
  std::vector<Span> setup_spans;
  double decode_ns_per_node = 0.0;
};

/// Read throughput and latency percentiles are medians over the
/// measured window's time slices (PhaseResult::ReadSlices).
std::vector<Metric> EndToEndMetrics(const RunData& d) {
  const PhaseResult& wire = d.phases[0];
  const std::vector<std::vector<uint64_t>> slices = wire.ReadSlices();
  const double slice_s = wire.window_s() / static_cast<double>(slices.size());
  const auto over_slices = [&](auto&& value) {
    return Median(slices, value);
  };
  return {
      {"setup_s", Median(d.setups, [](const SetupSample& s) { return s.total_s; }),
       "s"},
      {"setup_peak_rss_mib", d.peak_rss_mib, "MiB"},
      {"bytes_per_object", d.bytes_per_object, "B"},
      {"read_qps", over_slices([&](const std::vector<uint64_t>& s) {
         return Ratio(static_cast<double>(s.size()), slice_s);
       }),
       "1/s"},
      {"read_p50_us", over_slices([](const std::vector<uint64_t>& s) {
         return PercentileUs(s, 0.50);
       }),
       "us"},
      {"read_p99_us", over_slices([](const std::vector<uint64_t>& s) {
         return PercentileUs(s, 0.99);
       }),
       "us"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunData& d) {
  const PhaseResult& wire = d.phases[0];
  const PhaseResult& wire_traced = d.phases[1];
  const PhaseResult& svc = d.phases[2];
  const PhaseResult& tree = d.phases[3];
  // Level means are medians of per-slice means, as steady as the
  // end-to-end metrics, and still additive within a slice.
  const auto level_mean = [](const PhaseResult& p) {
    return Median(p.ReadSlices(), [](const std::vector<uint64_t>& slice) {
      return MeanUs(slice);
    });
  };
  const double wire_mean = level_mean(wire);
  const double wire_traced_mean = level_mean(wire_traced);
  const double svc_mean = level_mean(svc);
  const double tree_mean = level_mean(tree);
  const SpanSummary rt = Summarize(tree.spans, "rtree.call");
  const SpanSummary wc = Summarize(tree.spans, "wal.commit");
  const double calls = static_cast<double>(rt.calls);
  const double commits = static_cast<double>(wc.calls);
  const double net_self = wire_traced_mean - svc_mean;
  const double service_self = svc_mean - tree_mean;
  const double rtree_self = Ratio(static_cast<double>(rt.self_ns), calls) / 1e3;
  const double disk_per_req =
      Ratio(static_cast<double>(rt.disk_read_total_ns), calls) / 1e3;
  uint64_t tree_reads = 0;
  rtree::SearchStats ts;
  for (const ThreadOutcome& t : tree.threads) {
    for (const auto& k : t.reads) tree_reads += k.size();
    ts.nodes_visited += t.stats.nodes_visited;
    ts.entries_tested += t.stats.entries_tested;
    ts.results += t.stats.results;
  }
  const double wire_reqs = static_cast<double>(wire.Sum(&ThreadOutcome::attempted));
  const double fetches =
      static_cast<double>(wire.pool_after.fetches - wire.pool_before.fetches);
  const std::vector<uint64_t> writes = wire.Writes();
  std::vector<uint64_t> checkpoint_ns;
  for (const ThreadOutcome& t : tree.threads) {
    checkpoint_ns.insert(checkpoint_ns.end(), t.checkpoint_ns.begin(),
                         t.checkpoint_ns.end());
  }
  const auto setup_median = [&](double SetupSample::*field) {
    return Median(d.setups, [field](const SetupSample& s) { return s.*field; });
  };
  const auto pack_median = [&](uint64_t pack::ExternalPackStats::*field) {
    return Median(d.setups, [field](const SetupSample& s) {
      return static_cast<double>(s.pack.*field);
    });
  };
  uint64_t rejected = 0;
  for (size_t p = 0; p < 3; ++p) {
    rejected += d.phases[p].rejected_after - d.phases[p].rejected_before;
  }

  std::vector<Metric> m = {
      {"net.read_self_us", net_self, "us"},
      {"net.write_self_us",
       writes.empty() ? 0.0
                      : MeanUs(wire_traced.Writes()) -
                            Ratio(static_cast<double>(wc.call_ns), commits) / 1e3,
       "us"},
  };
  for (size_t k = 0; k < kReadKinds; ++k) {
    m.push_back({std::string("net.") + kReadKindNames[k] + "_p50_us",
                 PercentileUs(wire.Reads(k), 0.50), "us"});
  }
  const std::vector<Metric> rest = {
      {"net.write_p50_us", PercentileUs(writes, 0.50), "us"},
      {"net.write_p99_us", PercentileUs(writes, 0.99), "us"},
      {"net.write_commits_per_s",
       Ratio(static_cast<double>(writes.size()), wire.window_s()), "1/s"},
      {"service.self_us", service_self, "us"},
      {"service.rejected", static_cast<double>(rejected), "count"},
      {"rtree.self_us", rtree_self, "us"},
      {"rtree.ns_per_node",
       Ratio(static_cast<double>(rt.self_ns),
             static_cast<double>(ts.nodes_visited)),
       "ns"},
      {"rtree.nodes_per_req",
       Ratio(static_cast<double>(ts.nodes_visited),
             static_cast<double>(tree_reads)),
       "count"},
      {"rtree.entries_tested_per_req",
       Ratio(static_cast<double>(ts.entries_tested),
             static_cast<double>(tree_reads)),
       "count"},
      {"rtree.results_per_req",
       Ratio(static_cast<double>(ts.results), static_cast<double>(tree_reads)),
       "count"},
      {"rtree.hit_ratio",
       Ratio(static_cast<double>(ts.results),
             static_cast<double>(ts.entries_tested)),
       "ratio"},
      {"rtree.decode_ns_per_node", d.decode_ns_per_node, "ns"},
      {"storage.pool.fetches_per_req", Ratio(fetches, wire_reqs), "count"},
      {"storage.pool.miss_ratio",
       Ratio(static_cast<double>(wire.pool_after.misses -
                                 wire.pool_before.misses),
             fetches),
       "ratio"},
      {"storage.pool.evictions_per_req",
       Ratio(static_cast<double>(wire.pool_after.evictions -
                                 wire.pool_before.evictions),
             wire_reqs),
       "count"},
      {"storage.disk.reads_per_req",
       Ratio(static_cast<double>(wire.disk_after.reads - wire.disk_before.reads),
             wire_reqs),
       "count"},
      {"storage.disk.read_us",
       Ratio(static_cast<double>(rt.disk_read_total_ns),
             static_cast<double>(rt.disk_read_ns.size())) /
           1e3,
       "us"},
      {"storage.disk.read_p99_us", PercentileUs(rt.disk_read_ns, 0.99), "us"},
      {"storage.disk.read_share",
       Ratio(static_cast<double>(rt.disk_read_total_ns),
             static_cast<double>(rt.call_ns)),
       "ratio"},
      {"storage.disk.writes_per_commit",
       Ratio(static_cast<double>(wc.disk_writes), commits), "count"},
      {"storage.disk.syncs_per_commit",
       Ratio(static_cast<double>(wc.disk_syncs), commits), "count"},
      {"storage.disk.sync_us",
       Ratio(static_cast<double>(wc.disk_sync_ns),
             static_cast<double>(wc.disk_syncs)) /
           1e3,
       "us"},
      {"wal.commit_us", Ratio(static_cast<double>(wc.call_ns), commits) / 1e3,
       "us"},
      {"wal.commit_self_us",
       Ratio(static_cast<double>(wc.self_ns), commits) / 1e3, "us"},
      {"wal.bytes_per_commit",
       Ratio(static_cast<double>(tree.wal_after.appended_bytes -
                                 tree.wal_before.appended_bytes),
             commits),
       "B"},
      {"wal.checkpoints",
       static_cast<double>(tree.checkpoints_after - tree.checkpoints_before),
       "count"},
      {"wal.checkpoint_ms", MeanUs(checkpoint_ns) / 1e3, "ms"},
      {"pack.build_s", setup_median(&SetupSample::pack_s), "s"},
      {"pack.spill_runs", pack_median(&pack::ExternalPackStats::spill_runs),
       "count"},
      {"pack.spill_pages_written",
       pack_median(&pack::ExternalPackStats::spill_pages_written), "count"},
      {"storage.flush_s", setup_median(&SetupSample::flush_s), "s"},
      {"service.start_s", setup_median(&SetupSample::start_s), "s"},
      {"trace.overhead_pct",
       Ratio(wire_traced_mean - wire_mean, wire_mean) * 100.0, "%"},
      {"trace.unattributed_pct",
       Ratio(std::abs(net_self + service_self + rtree_self + disk_per_req -
                      wire_mean),
             wire_mean) *
           100.0,
       "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// --- Output -------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Spans to trace.jsonl, one object per line, times relative to the
/// first span. Each phase writes at most kMaxSpansPerPhase spans (the
/// earliest); metrics are computed from all of them.
constexpr size_t kMaxSpansPerPhase = 100'000;

bool WriteTrace(const std::string& path, const RunData& d) {
  std::vector<const std::vector<Span>*> groups = {&d.setup_spans};
  for (const PhaseResult& p : d.phases) groups.push_back(&p.spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto* g : groups) {
    for (const Span& s : *g) origin = std::min(origin, s.start_ns);
  }
  for (const auto* g : groups) {
    std::vector<Span> group = *g;
    std::sort(group.begin(), group.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
    if (group.size() > kMaxSpansPerPhase) group.resize(kMaxSpansPerPhase);
    for (const Span& s : group) {
      std::fprintf(f,
                   "{\"id\":%llu,\"req\":%llu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.req), s.name,
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(s.end_ns - origin),
                   static_cast<unsigned long long>(s.parent));
    }
  }
  return std::fclose(f) == 0;
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  auto spec_or = SpecFor(flags.workload, flags.smoke);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = std::move(spec_or).value();
  std::error_code ec;
  std::filesystem::create_directories(flags.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", flags.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const auto fail = [](const char* what, const Status& st) {
    std::fprintf(stderr, "pictbench: %s: %s\n", what, st.ToString().c_str());
    return 2;
  };

  // Set-up, repeated; the last stack serves the run. The durable tree's
  // bulk-load input is generated before the clock starts.
  RunData data;
  data.spec = &spec;
  std::vector<rtree::Entry> durable_input;
  if (spec.durable) {
    BasePointSource source(flags.seed, spec.objects);
    rtree::Entry e;
    while (source.Next(&e).value()) durable_input.push_back(e);
  }
  Tracer::Get().Enable(flags.trace);
  std::unique_ptr<Stack> stack;
  for (size_t i = 0; i < spec.setups; ++i) {
    stack.reset();
    SetupSample sample;
    auto built = BuildStack(spec, flags, durable_input, &sample);
    if (!built.ok()) return fail("setup", built.status());
    stack = std::move(built).value();
    data.setups.push_back(sample);
  }
  Tracer::Get().Enable(false);
  data.peak_rss_mib = PeakRssMib();
  data.bytes_per_object =
      static_cast<double>(stack->file->page_count()) *
      storage::kDefaultPageSize /
      static_cast<double>(spec.objects + spec.overlay);
  data.setup_spans = Tracer::Get().TakeAll();
  durable_input = {};

  // Oracle and requests: not part of set-up.
  const uint64_t prep_start = NowNs();
  const GridOracle oracle(BasePoints(flags.seed, spec.objects), Frame());
  const std::vector<geom::Rect> overlay = OverlayRects(flags.seed, spec.overlay);
  const RequestPools pools = BuildRequestPools(spec, oracle, overlay, flags.seed);
  const uint64_t cross_check_start = NowNs();
  if (const std::string bad = CrossCheckOracle(oracle, pools, overlay);
      !bad.empty()) {
    std::fprintf(stderr, "pictbench: oracle cross-check failed: %s\n",
                 bad.c_str());
    return 2;
  }
  const double prep_s = Seconds(prep_start, cross_check_start);
  const double cross_check_s = Seconds(cross_check_start, NowNs());
  std::optional<Writer> writer;
  if (spec.writer) {
    writer.emplace(spec.strip_x,
                   static_cast<storage::PageId>(spec.objects + 1));
  }
  Context ctx;
  ctx.flags = &flags;
  ctx.spec = &spec;
  ctx.stack = stack.get();
  ctx.oracle = &oracle;
  ctx.pools = &pools;
  ctx.writer = writer.has_value() ? &*writer : nullptr;

  struct PhasePlan {
    Level level;
    bool traced;
  };
  std::vector<PhasePlan> plan = {{Level::kWire, false}};
  double warmup_s = flags.smoke ? 0.5 : 3.0;
  double measure_s = flags.seconds;
  if (flags.trace) {
    plan = {{Level::kWire, false},
            {Level::kWire, true},
            {Level::kService, true},
            {Level::kTree, true}};
    warmup_s = flags.smoke ? 0.5 : 2.0;
    measure_s = std::max(1.0, flags.seconds / 2.0);
  }
  for (const PhasePlan& p : plan) {
    auto phase = RunPhase(ctx, p.level, p.traced, warmup_s, measure_s);
    if (!phase.ok()) return fail("phase", phase.status());
    data.phases.push_back(std::move(phase).value());
  }

  std::vector<std::string> problems;
  for (const PhaseResult& p : data.phases) {
    for (const ThreadOutcome& t : p.threads) {
      problems.insert(problems.end(), t.problems.begin(), t.problems.end());
    }
  }
  if (spec.writer) {
    if (std::string bad = CheckWritePath(ctx); !bad.empty()) {
      problems.push_back("write path: " + bad);
    }
  }
  if (flags.trace) data.decode_ns_per_node = DecodeNsPerNode(stack->served());
  stack.reset();

  uint64_t attempted = 0, failed = 0, bad = 0;
  for (const PhaseResult& p : data.phases) {
    attempted += p.Sum(&ThreadOutcome::attempted);
    failed += p.Sum(&ThreadOutcome::failed);
    bad += p.Sum(&ThreadOutcome::bad);
  }
  // The end-to-end p99 is a median of per-slice p99s; each needs ten
  // samples beyond it.
  const std::vector<std::vector<uint64_t>> slices = data.phases[0].ReadSlices();
  size_t slice_min = SIZE_MAX;
  for (const auto& slice : slices) slice_min = std::min(slice_min, slice.size());
  if (!flags.trace && SamplesBeyond(slice_min, 0.99) < 10) {
    problems.push_back("too few read samples for p99: " +
                       std::to_string(slice_min) + " in a slice");
  }
  std::string trace_path;
  if (flags.trace) {
    trace_path = flags.workdir + "/trace-" + spec.name + ".jsonl";
    if (!WriteTrace(trace_path, data)) {
      problems.push_back("cannot write " + trace_path);
    }
  }
  const bool correct = bad == 0 && problems.empty();
  const std::vector<Metric> metrics =
      flags.trace ? PerLayerMetrics(data) : EndToEndMetrics(data);

  // Diagnostics line: sample counts behind each percentile, set-up
  // samples, and the first problems seen.
  std::string detail = "{\"workload\":" + Quote(spec.name) +
                       ",\"seed\":" + std::to_string(flags.seed) +
                       ",\"objects\":" + std::to_string(spec.objects) +
                       ",\"pool_frames\":" + std::to_string(PoolFrames(spec)) +
                       ",\"setup_s\":[";
  for (size_t i = 0; i < data.setups.size(); ++i) {
    detail += (i ? "," : "") + Number(data.setups[i].total_s);
  }
  detail += "],\"oracle_s\":" + Number(prep_s) +
            ",\"cross_check_s\":" + Number(cross_check_s) +
            ",\"slices\":" + std::to_string(slices.size()) +
            ",\"slice_min_samples\":" + std::to_string(slice_min) +
            ",\"slice_min_p99_beyond\":" +
            std::to_string(SamplesBeyond(slice_min, 0.99)) +
            ",\"samples\":{";
  for (size_t k = 0; k < kReadKinds; ++k) {
    detail += std::string(k ? "," : "") + Quote(kReadKindNames[k]) + ":" +
              std::to_string(data.phases[0].Reads(k).size());
  }
  detail += ",\"write\":" + std::to_string(data.phases[0].Writes().size()) +
            "},\"trace_file\":" + Quote(trace_path) + ",\"problems\":[";
  for (size_t i = 0; i < problems.size() && i < 8; ++i) {
    detail += (i ? "," : "") + Quote(problems[i]);
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": " +
            Quote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "pictbench: %s\n", p.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pictdb::bench

int main(int argc, char** argv) { return pictdb::bench::Run(argc, argv); }
