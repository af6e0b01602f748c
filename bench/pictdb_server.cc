// pictdb_server: standalone serving binary over the binary protocol.
//
// Builds (or reopens) a packed R-tree plus a rect overlay for joins,
// stands a net::Server over a QueryService, and serves until SIGINT /
// SIGTERM triggers a graceful drain. With --file the tree lives in a
// FileDiskManager-backed page file and a `<file>.meta` sidecar records
// the meta pages, so several replica processes can serve one immutable
// packed tree:
//
//   pictdb_server --file=/tmp/db.pages --build --objects=100000
//       --unix=/tmp/pictdb.sock
//   pictdb_server --file=/tmp/db.pages --unix=/tmp/pictdb-r2.sock  # replica
//
// The dataset is fully determined by (seed, objects, overlay), so a
// load generator given the same parameters can rebuild it locally and
// check every wire answer against a brute-force oracle.

#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geom/rect.h"
#include "net/server.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/heap_file.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"

namespace {

using namespace pictdb;  // NOLINT(build/namespaces) — bench binary

struct Flags {
  std::string unix_path;
  int tcp_port = -1;
  std::string file;   // empty = in-memory
  bool build = false;  // with --file: build + persist instead of reopening
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
      "usage: %s [--unix=PATH] [--port=N] [--file=PATH [--build]]\n"
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

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--build") {
      flags->build = true;
    } else if (arg == "--allow-admin") {
      flags->allow_admin = true;
    } else if (arg == "--no-catalog") {
      flags->no_catalog = true;
    } else if (ParseFlag(arg, "unix", &value)) {
      flags->unix_path = value;
    } else if (ParseFlag(arg, "port", &value)) {
      flags->tcp_port = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "file", &value)) {
      flags->file = value;
    } else if (ParseFlag(arg, "objects", &value)) {
      flags->objects = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "overlay", &value)) {
      flags->overlay = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seed", &value)) {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "page-size", &value)) {
      flags->page_size = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "pool-pages", &value)) {
      flags->pool_pages = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "threads", &value)) {
      flags->threads = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "cache-bytes", &value)) {
      flags->cache_bytes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "quota-qps", &value)) {
      flags->quota_qps = std::atof(value.c_str());
    } else if (ParseFlag(arg, "quota-burst", &value)) {
      flags->quota_burst = std::atof(value.c_str());
    } else if (ParseFlag(arg, "max-conns", &value)) {
      flags->max_conns = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "max-inflight", &value)) {
      flags->max_inflight = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->unix_path.empty() && flags->tcp_port < 0) {
    std::fprintf(stderr, "need at least one of --unix / --port\n");
    return false;
  }
  return true;
}

/// The sidecar that makes a page file self-describing: the two meta
/// pages plus the dataset parameters a replica (or the load generator's
/// oracle) needs to reconstruct context.
struct Sidecar {
  storage::PageId tree_meta = 0;
  storage::PageId overlay_meta = 0;
  size_t objects = 0;
  size_t overlay = 0;
  uint64_t seed = 0;
  uint32_t page_size = 0;
};

std::string SidecarPath(const std::string& file) { return file + ".meta"; }

bool WriteSidecar(const std::string& file, const Sidecar& meta) {
  std::FILE* f = std::fopen(SidecarPath(file).c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "pictdb-meta v1\n"
               "page_size %u\n"
               "objects %zu\n"
               "seed %llu\n"
               "overlay %zu\n"
               "tree_meta %u\n"
               "overlay_meta %u\n",
               meta.page_size, meta.objects,
               static_cast<unsigned long long>(meta.seed), meta.overlay,
               meta.tree_meta, meta.overlay_meta);
  std::fclose(f);
  return true;
}

bool ReadSidecar(const std::string& file, Sidecar* meta) {
  std::FILE* f = std::fopen(SidecarPath(file).c_str(), "r");
  if (f == nullptr) return false;
  char key[64];
  unsigned long long value = 0;
  char header[32];
  int version = 0;
  bool ok = std::fscanf(f, "%31s v%d", header, &version) == 2 &&
            std::string(header) == "pictdb-meta" && version == 1;
  while (ok && std::fscanf(f, "%63s %llu", key, &value) == 2) {
    const std::string k = key;
    if (k == "page_size") {
      meta->page_size = static_cast<uint32_t>(value);
    } else if (k == "objects") {
      meta->objects = static_cast<size_t>(value);
    } else if (k == "seed") {
      meta->seed = value;
    } else if (k == "overlay") {
      meta->overlay = static_cast<size_t>(value);
    } else if (k == "tree_meta") {
      meta->tree_meta = static_cast<storage::PageId>(value);
    } else if (k == "overlay_meta") {
      meta->overlay_meta = static_cast<storage::PageId>(value);
    }
  }
  std::fclose(f);
  return ok;
}

/// The canonical serving dataset: `objects` uniform points (seed) and
/// `overlay` 8x8 rects (seed+1), both Hilbert sort-chunk packed. Kept
/// deliberately tiny and parameter-determined so bench/loadgen can
/// regenerate the identical dataset for its oracle.
Status BuildTrees(storage::BufferPool* pool, const Flags& flags,
                  std::optional<rtree::RTree>* tree,
                  std::optional<rtree::RTree>* overlay) {
  Random rng(flags.seed);
  const std::vector<geom::Point> points =
      workload::UniformPoints(&rng, flags.objects, workload::PaperFrame());
  std::vector<storage::Rid> rids(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    rids[i] = storage::Rid{static_cast<storage::PageId>(i + 1), 0};
  }
  const pack::PackOptions hilbert{.criterion = pack::SortCriterion::kHilbert,
                                 .strategy = pack::PackStrategy::kSortChunk};
  PICTDB_ASSIGN_OR_RETURN(rtree::RTree t, rtree::RTree::Create(pool));
  PICTDB_RETURN_IF_ERROR(
      pack::Pack(&t, pack::MakeLeafEntries(points, rids), hilbert));
  tree->emplace(std::move(t));

  Random overlay_rng(flags.seed + 1);
  const std::vector<geom::Point> centers = workload::UniformPoints(
      &overlay_rng, flags.overlay, workload::PaperFrame());
  std::vector<geom::Rect> rects;
  rects.reserve(centers.size());
  std::vector<storage::Rid> overlay_rids(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    rects.push_back(
        geom::Rect::FromCenterHalfExtent(centers[i].x, 4.0, centers[i].y, 4.0));
    overlay_rids[i] = storage::Rid{static_cast<storage::PageId>(i + 1), 1};
  }
  PICTDB_ASSIGN_OR_RETURN(rtree::RTree o, rtree::RTree::Create(pool));
  PICTDB_RETURN_IF_ERROR(
      pack::Pack(&o, pack::MakeLeafEntries(rects, overlay_rids), hilbert));
  overlay->emplace(std::move(o));
  return Status::OK();
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
  const bool reopen = !flags.file.empty() && !flags.build;
  Sidecar sidecar;
  if (reopen) {
    if (!ReadSidecar(flags.file, &sidecar)) {
      std::fprintf(stderr, "cannot read sidecar %s (need --build first?)\n",
                   SidecarPath(flags.file).c_str());
      return 1;
    }
    // The page file is authoritative for dataset parameters: replicas
    // and the loadgen oracle must agree on what was packed.
    flags.page_size = sidecar.page_size;
    flags.objects = sidecar.objects;
    flags.overlay = sidecar.overlay;
    flags.seed = sidecar.seed;
  }
  if (!flags.file.empty()) {
    auto opened = storage::FileDiskManager::Open(flags.file, flags.page_size,
                                                 /*truncate=*/flags.build);
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
  if (reopen) {
    auto t = rtree::RTree::Open(&pool, sidecar.tree_meta);
    auto o = rtree::RTree::Open(&pool, sidecar.overlay_meta);
    if (!t.ok() || !o.ok()) {
      std::fprintf(stderr, "reopen failed: %s\n",
                   (t.ok() ? o.status() : t.status()).ToString().c_str());
      return 1;
    }
    tree.emplace(std::move(t).value());
    overlay.emplace(std::move(o).value());
  } else {
    const Status built = BuildTrees(&pool, flags, &tree, &overlay);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
      return 1;
    }
    if (!flags.file.empty()) {
      // FlushAll empties the pool into the disk manager; Sync pushes it
      // past stdio buffering so replica processes opening the same file
      // see every page (a zero allocation image would silently read as
      // an empty node).
      Status flushed = pool.FlushAll();
      if (flushed.ok()) flushed = base->Sync();
      if (!flushed.ok()) {
        std::fprintf(stderr, "flush failed: %s\n", flushed.ToString().c_str());
        return 1;
      }
      Sidecar out;
      out.tree_meta = tree->meta_page();
      out.overlay_meta = overlay->meta_page();
      out.objects = flags.objects;
      out.overlay = flags.overlay;
      out.seed = flags.seed;
      out.page_size = flags.page_size;
      if (!WriteSidecar(flags.file, out)) {
        std::fprintf(stderr, "cannot write sidecar %s\n",
                     SidecarPath(flags.file).c_str());
        return 1;
      }
    }
  }

  // The relational catalog lives in its own private in-memory pool:
  // replicas must not append tuple pages to the shared page file, and
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
