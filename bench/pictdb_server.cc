// pictdb_server: standalone serving binary over the binary protocol.
//
// Packs a R-tree plus a rect overlay for joins, stands a net::Server
// over a QueryService, and serves until SIGINT / SIGTERM triggers a
// graceful drain. With --file the tree is packed into a fresh
// FileDiskManager-backed page file, so queries that miss the buffer
// pool read the disk:
//
//   pictdb_server --file=/tmp/db.pages --objects=100000
//       --pool-pages=256 --unix=/tmp/pictdb.sock
//
// The dataset is fully determined by (seed, objects, overlay)
// (workload::MakeServingDataset), so a client given the same parameters
// can rebuild it and check every wire answer against a brute-force
// oracle; tests/server_process_test.cc does.

#include <signal.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "common/status.h"
#include "net/server.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "workload/serving_dataset.h"
#include "workload/us_catalog.h"

namespace {

using namespace pictdb;  // NOLINT(build/namespaces) — bench binary

struct Flags {
  std::string unix_path;
  int tcp_port = -1;
  std::string file;  // empty = in-memory
  size_t objects = 100000;
  size_t overlay = 1000;
  uint64_t seed = 4242;
  uint32_t page_size = 512;
  size_t pool_pages = 4096;
  size_t threads = 4;
  size_t cache_bytes = 0;
  double quota_qps = 0.0;
  double quota_burst = 16.0;
  size_t max_conns = 64;
  size_t max_inflight = 64;
  bool allow_admin = false;
  bool no_catalog = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--unix=PATH] [--port=N] [--file=PATH]\n"
      "          [--objects=N] [--overlay=N] [--seed=S] [--page-size=B]\n"
      "          [--pool-pages=N] [--threads=N]\n"
      "          [--cache-bytes=N] [--quota-qps=Q] [--quota-burst=B]\n"
      "          [--max-conns=N] [--max-inflight=N] [--allow-admin]\n"
      "          [--no-catalog]\n",
      argv0);
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Upper bounds of the numeric flags. Each serving thread is an OS
// thread, and a rid's page id (i + 1) is 32 bits wide.
constexpr size_t kMaxServingThreads = 256;
constexpr size_t kMaxObjects = storage::kInvalidPageId - 1;
constexpr size_t kMaxPoolPages = size_t{1} << 24;
constexpr size_t kMaxConnections = size_t{1} << 20;
constexpr double kMaxRate = 1e9;

/// Parses all of `text` as a number in [lo, hi]. A trailing character,
/// a sign an unsigned flag cannot take, or an out-of-range value fails.
template <typename T>
bool ParseNumber(const std::string& text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    bool ok = true;
    if (arg == "--allow-admin") {
      flags->allow_admin = true;
    } else if (arg == "--no-catalog") {
      flags->no_catalog = true;
    } else if (ParseFlag(arg, "unix", &value)) {
      flags->unix_path = value;
    } else if (ParseFlag(arg, "port", &value)) {
      ok = ParseNumber(value, 0, 65535, &flags->tcp_port);
    } else if (ParseFlag(arg, "file", &value)) {
      flags->file = value;
    } else if (ParseFlag(arg, "objects", &value)) {
      ok = ParseNumber(value, 1, kMaxObjects, &flags->objects);
    } else if (ParseFlag(arg, "overlay", &value)) {
      ok = ParseNumber(value, 1, kMaxObjects, &flags->overlay);
    } else if (ParseFlag(arg, "seed", &value)) {
      ok = ParseNumber(value, 0, UINT64_MAX, &flags->seed);
    } else if (ParseFlag(arg, "page-size", &value)) {
      ok = ParseNumber(value, 256, 65536, &flags->page_size);
    } else if (ParseFlag(arg, "pool-pages", &value)) {
      ok = ParseNumber(value, 1, kMaxPoolPages, &flags->pool_pages);
    } else if (ParseFlag(arg, "threads", &value)) {
      ok = ParseNumber(value, 1, kMaxServingThreads, &flags->threads);
    } else if (ParseFlag(arg, "cache-bytes", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &flags->cache_bytes);
    } else if (ParseFlag(arg, "quota-qps", &value)) {
      ok = ParseNumber(value, 0.0, kMaxRate, &flags->quota_qps);
    } else if (ParseFlag(arg, "quota-burst", &value)) {
      ok = ParseNumber(value, 0.0, kMaxRate, &flags->quota_burst);
    } else if (ParseFlag(arg, "max-conns", &value)) {
      ok = ParseNumber(value, 1, kMaxConnections, &flags->max_conns);
    } else if (ParseFlag(arg, "max-inflight", &value)) {
      ok = ParseNumber(value, 0, kMaxConnections, &flags->max_inflight);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->unix_path.empty() && flags->tcp_port < 0) {
    std::fprintf(stderr, "need at least one of --unix / --port\n");
    return false;
  }
  return true;
}

/// Packs the serving dataset (Hilbert sort-chunk) into two trees and
/// writes them through to the page file.
Status BuildTrees(storage::BufferPool* pool, const Flags& flags,
                  std::optional<rtree::RTree>* tree,
                  std::optional<rtree::RTree>* overlay) {
  workload::ServingDataset data =
      workload::MakeServingDataset(flags.seed, flags.objects, flags.overlay);
  const pack::PackOptions hilbert{.criterion = pack::SortCriterion::kHilbert,
                                 .strategy = pack::PackStrategy::kSortChunk};
  PICTDB_ASSIGN_OR_RETURN(rtree::RTree t, rtree::RTree::Create(pool));
  PICTDB_RETURN_IF_ERROR(pack::Pack(&t, std::move(data.points), hilbert));
  tree->emplace(std::move(t));
  PICTDB_ASSIGN_OR_RETURN(rtree::RTree o, rtree::RTree::Create(pool));
  PICTDB_RETURN_IF_ERROR(pack::Pack(&o, std::move(data.overlay), hilbert));
  overlay->emplace(std::move(o));
  // Packed pages live in the pool until flushed; a pool that holds the
  // whole tree would otherwise leave the page file empty while serving.
  PICTDB_RETURN_IF_ERROR(pool->FlushAll());
  return pool->disk()->Sync();
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  // Storage stack: (file | memory) -> fault injection (armed only via
  // admin frames) -> buffer pool. The fault layer is always present so
  // --allow-admin servers can run wire-driven fault episodes.
  std::unique_ptr<storage::DiskManager> base;
  if (!flags.file.empty()) {
    auto opened = storage::FileDiskManager::Open(flags.file, flags.page_size);
    if (!opened.ok()) {
      std::fprintf(stderr, "open %s: %s\n", flags.file.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    base = std::move(opened).value();
  } else {
    base = std::make_unique<storage::InMemoryDiskManager>(flags.page_size);
  }
  storage::FaultInjectionDiskManager fault_disk(base.get(),
                                                storage::FaultPlan{});
  storage::BufferPool pool(&fault_disk, flags.pool_pages, 8);

  std::optional<rtree::RTree> tree;
  std::optional<rtree::RTree> overlay;
  const Status built = BuildTrees(&pool, flags, &tree, &overlay);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }

  // The relational catalog lives in its own private in-memory pool, so
  // fault episodes target the pictorial store, not the relations.
  storage::InMemoryDiskManager catalog_disk(512);
  storage::BufferPool catalog_pool(&catalog_disk, 512, 2);
  rel::Catalog catalog(&catalog_pool);
  std::optional<psql::Executor> executor;
  if (!flags.no_catalog) {
    const Status built = workload::BuildUsCatalog(&catalog);
    if (!built.ok()) {
      std::fprintf(stderr, "catalog build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    executor.emplace(&catalog);
  }

  service::ServiceOptions service_options;
  service_options.num_threads = flags.threads;
  service::QueryService service(&*tree,
                                executor.has_value() ? &*executor : nullptr,
                                service_options);

  net::ServerOptions server_options;
  server_options.unix_path = flags.unix_path;
  server_options.tcp_port = flags.tcp_port;
  server_options.max_connections = flags.max_conns;
  server_options.quota_qps = flags.quota_qps;
  server_options.quota_burst = flags.quota_burst;
  server_options.max_inflight_per_conn = flags.max_inflight;
  server_options.cache_bytes = flags.cache_bytes;
  server_options.allow_admin = flags.allow_admin;

  net::Server::Bindings bindings;
  bindings.service = &service;
  bindings.overlay = &*overlay;
  bindings.fault_disk = &fault_disk;
  net::Server server(bindings, server_options);

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  net::Server::InstallSignalHandlers(&server);

  std::printf("READY unix=%s tcp_port=%d objects=%zu overlay=%zu seed=%llu\n",
              flags.unix_path.empty() ? "-" : flags.unix_path.c_str(),
              server.tcp_port(), flags.objects, flags.overlay,
              static_cast<unsigned long long>(flags.seed));
  std::fflush(stdout);

  server.Join();  // returns after a drain (signal or RequestDrain)
  net::Server::InstallSignalHandlers(nullptr);
  std::fprintf(stderr, "drained; final stats:\n");
  server.DumpStats(stderr);
  const storage::DiskStatsSnapshot disk = base->StatsSnapshot();
  std::fprintf(stderr, "disk: reads=%llu writes=%llu\n",
               static_cast<unsigned long long>(disk.reads),
               static_cast<unsigned long long>(disk.writes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
