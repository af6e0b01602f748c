#include "check/stress.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "check/invariants.h"
#include "check/oracle.h"
#include "common/random.h"
#include "pack/pack.h"
#include "pack/repack.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/write_cache.h"
#include "wal/durable_tree.h"
#include "workload/generators.h"

namespace pictdb::check {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::LeafHit;
using storage::PageId;

std::string StressOutcome::Summary() const {
  std::ostringstream os;
  os << (failed ? "FAILED" : "ok") << ": " << queries << " queries ("
     << wrong_answers << " wrong, " << degraded_subsets << " degraded), "
     << mutations << " mutations, " << validations << " validations";
  if (crashes != 0) os << ", " << crashes << " crashes survived";
  if (failed) os << "; op " << failing_op << ": " << message;
  return os.str();
}

// --- Trace generation -------------------------------------------------------

std::vector<Op> GenerateTrace(const StressConfig& config) {
  Random rng(config.seed);
  const Rect frame =
      config.frame.IsEmpty() ? workload::PaperFrame() : config.frame;
  const double total = config.w_insert + config.w_delete + config.w_update +
                       config.w_window + config.w_contained + config.w_point +
                       config.w_knn + config.w_search_batch + config.w_repack +
                       config.w_repack_region + config.w_checkpoint +
                       config.w_crash + config.w_fault_flip;
  std::vector<Op> trace;
  trace.reserve(config.ops);
  bool faults_armed = false;

  auto draw_window = [&]() {
    const double cx = rng.UniformDouble(frame.lo.x, frame.hi.x);
    const double cy = rng.UniformDouble(frame.lo.y, frame.hi.y);
    const double dx =
        rng.UniformDouble(config.min_half_extent, config.max_half_extent);
    const double dy =
        rng.UniformDouble(config.min_half_extent, config.max_half_extent);
    return Rect::FromCenterHalfExtent(cx, dx, cy, dy);
  };
  auto draw_point = [&]() {
    return Point{rng.UniformDouble(frame.lo.x, frame.hi.x),
                 rng.UniformDouble(frame.lo.y, frame.hi.y)};
  };

  for (size_t i = 0; i < config.ops; ++i) {
    double r = rng.NextDouble() * total;
    Op op;
    if ((r -= config.w_insert) < 0) {
      op.kind = OpKind::kInsert;
      // Mostly points, sometimes small extended objects.
      const Point p = draw_point();
      if (rng.Bernoulli(0.25)) {
        op.rect = Rect::FromCenterHalfExtent(p.x, rng.UniformDouble(0.1, 5),
                                             p.y, rng.UniformDouble(0.1, 5));
      } else {
        op.rect = Rect::FromPoint(p);
      }
    } else if ((r -= config.w_delete) < 0) {
      op.kind = OpKind::kDelete;
      op.a = static_cast<uint32_t>(rng.Uniform(1u << 30));
    } else if ((r -= config.w_update) < 0) {
      op.kind = OpKind::kUpdate;
      op.a = static_cast<uint32_t>(rng.Uniform(1u << 30));
      const Point p = draw_point();
      op.rect = rng.Bernoulli(0.25)
                    ? Rect::FromCenterHalfExtent(p.x, rng.UniformDouble(0.1, 5),
                                                 p.y, rng.UniformDouble(0.1, 5))
                    : Rect::FromPoint(p);
    } else if ((r -= config.w_window) < 0) {
      op.kind = OpKind::kWindow;
      op.rect = draw_window();
    } else if ((r -= config.w_contained) < 0) {
      op.kind = OpKind::kContained;
      op.rect = draw_window();
    } else if ((r -= config.w_point) < 0) {
      op.kind = OpKind::kPoint;
      op.point = draw_point();
    } else if ((r -= config.w_knn) < 0) {
      op.kind = OpKind::kKnn;
      op.point = draw_point();
      op.a = static_cast<uint32_t>(1 + rng.Uniform(config.max_k));
    } else if ((r -= config.w_search_batch) < 0) {
      op.kind = OpKind::kSearchBatch;
      op.rect = draw_window();
      op.a = static_cast<uint32_t>(rng.Uniform(1u << 16));
    } else if ((r -= config.w_repack) < 0) {
      op.kind = OpKind::kRepack;
    } else if ((r -= config.w_repack_region) < 0) {
      op.kind = OpKind::kRepackRegion;
      op.rect = draw_window();
    } else if ((r -= config.w_checkpoint) < 0) {
      op.kind = OpKind::kCheckpoint;
    } else if ((r -= config.w_crash) < 0) {
      op.kind = OpKind::kCrash;
    } else {
      op.kind = faults_armed ? OpKind::kFaultOff : OpKind::kFaultOn;
      faults_armed = !faults_armed;
    }
    trace.push_back(op);
  }
  // Never leave a generated trace in a fault episode: the closing
  // validation wants a quiet medium.
  if (faults_armed) trace.push_back(Op{OpKind::kFaultOff, {}, {}, 0});
  return trace;
}

// --- Text round trip --------------------------------------------------------

namespace {

void AppendRect(std::ostringstream& os, const Rect& r) {
  os << ' ' << r.lo.x << ' ' << r.lo.y << ' ' << r.hi.x << ' ' << r.hi.y;
}

}  // namespace

std::string TraceToText(const std::vector<Op>& trace) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const Op& op : trace) {
    switch (op.kind) {
      case OpKind::kInsert:
        os << "insert";
        AppendRect(os, op.rect);
        break;
      case OpKind::kDelete:
        os << "delete " << op.a;
        break;
      case OpKind::kUpdate:
        os << "update " << op.a;
        AppendRect(os, op.rect);
        break;
      case OpKind::kWindow:
        os << "window";
        AppendRect(os, op.rect);
        break;
      case OpKind::kContained:
        os << "contained";
        AppendRect(os, op.rect);
        break;
      case OpKind::kPoint:
        os << "point " << op.point.x << ' ' << op.point.y;
        break;
      case OpKind::kKnn:
        os << "knn " << op.point.x << ' ' << op.point.y << ' ' << op.a;
        break;
      case OpKind::kSearchBatch:
        os << "search-batch " << op.a;
        AppendRect(os, op.rect);
        break;
      case OpKind::kRepack:
        os << "repack";
        break;
      case OpKind::kRepackRegion:
        os << "repack-region";
        AppendRect(os, op.rect);
        break;
      case OpKind::kCheckpoint:
        os << "checkpoint";
        break;
      case OpKind::kCrash:
        os << "crash";
        break;
      case OpKind::kFaultOn:
        os << "fault-on";
        break;
      case OpKind::kFaultOff:
        os << "fault-off";
        break;
      case OpKind::kValidate:
        os << "validate";
        break;
      case OpKind::kCorruptMbr:
        os << "corrupt-mbr " << op.a;
        break;
    }
    os << '\n';
  }
  return os.str();
}

StatusOr<std::vector<Op>> ParseTrace(std::string_view text) {
  std::vector<Op> trace;
  std::istringstream lines{std::string(text)};
  std::string line;
  size_t lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    Op op;
    auto rect = [&]() -> bool {
      double x1, y1, x2, y2;
      if (!(in >> x1 >> y1 >> x2 >> y2)) return false;
      op.rect = Rect(x1, y1, x2, y2);
      return true;
    };
    bool ok = true;
    if (verb == "insert") {
      op.kind = OpKind::kInsert;
      ok = rect();
    } else if (verb == "delete") {
      op.kind = OpKind::kDelete;
      ok = static_cast<bool>(in >> op.a);
    } else if (verb == "update") {
      op.kind = OpKind::kUpdate;
      ok = static_cast<bool>(in >> op.a) && rect();
    } else if (verb == "window") {
      op.kind = OpKind::kWindow;
      ok = rect();
    } else if (verb == "contained") {
      op.kind = OpKind::kContained;
      ok = rect();
    } else if (verb == "point") {
      op.kind = OpKind::kPoint;
      ok = static_cast<bool>(in >> op.point.x >> op.point.y);
    } else if (verb == "knn") {
      op.kind = OpKind::kKnn;
      ok = static_cast<bool>(in >> op.point.x >> op.point.y >> op.a);
    } else if (verb == "search-batch") {
      op.kind = OpKind::kSearchBatch;
      ok = static_cast<bool>(in >> op.a) && rect();
    } else if (verb == "repack") {
      op.kind = OpKind::kRepack;
    } else if (verb == "repack-region") {
      op.kind = OpKind::kRepackRegion;
      ok = rect();
    } else if (verb == "checkpoint") {
      op.kind = OpKind::kCheckpoint;
    } else if (verb == "crash") {
      op.kind = OpKind::kCrash;
    } else if (verb == "fault-on") {
      op.kind = OpKind::kFaultOn;
    } else if (verb == "fault-off") {
      op.kind = OpKind::kFaultOff;
    } else if (verb == "validate") {
      op.kind = OpKind::kValidate;
    } else if (verb == "corrupt-mbr") {
      op.kind = OpKind::kCorruptMbr;
      ok = static_cast<bool>(in >> op.a);
    } else {
      ok = false;
    }
    if (!ok) {
      return Status::InvalidArgument("bad trace line " +
                                     std::to_string(lineno) + ": " + line);
    }
    trace.push_back(op);
  }
  return trace;
}

// --- Execution --------------------------------------------------------------

namespace {

/// Flip one mantissa bit of an inner-node entry MBR, rewriting the page
/// through the pool (so its CRC is restamped — the damage is purely
/// structural, exactly what the checksum can NOT catch and the
/// validator must).
Status CorruptInnerMbr(rtree::RTree* tree, uint32_t selector) {
  PICTDB_ASSIGN_OR_RETURN(storage::PageGuard guard,
                          tree->pool()->FetchPage(tree->root()));
  PICTDB_ASSIGN_OR_RETURN(
      rtree::Node node,
      rtree::ReadNode(guard.data(), tree->pool()->page_size()));
  if (node.entries.empty()) {
    return Status::InvalidArgument("cannot corrupt an empty root");
  }
  Entry& victim = node.entries[selector % node.entries.size()];
  uint64_t bits;
  std::memcpy(&bits, &victim.mbr.hi.x, sizeof(bits));
  bits ^= uint64_t{1} << (selector % 52);  // mantissa only: stays finite
  std::memcpy(&victim.mbr.hi.x, &bits, sizeof(bits));
  rtree::WriteNode(node, guard.mutable_data(), tree->pool()->page_size());
  return Status::OK();
}

}  // namespace

StressOutcome RunTrace(const std::vector<Op>& trace,
                       const StressConfig& config) {
  StressOutcome outcome;
  const Rect frame =
      config.frame.IsEmpty() ? workload::PaperFrame() : config.frame;

  // Environment: memory disk under a seeded fault injector under a
  // checksumming pool with fast (no-sleep) retries. Durable mode slots a
  // volatile write cache between the pool and the fault layer — the
  // "OS page cache" a kCrash op wipes.
  storage::InMemoryDiskManager mem(config.page_size);
  storage::FaultInjectionDiskManager faulty(&mem, config.fault_plan);
  faulty.ClearFaults();  // start every run quiet; kFaultOn re-arms
  std::optional<storage::WriteCacheDiskManager> wcache;
  storage::DiskManager* top = &faulty;
  if (config.durable) {
    wcache.emplace(&faulty);
    top = &*wcache;
  }
  storage::BufferPoolOptions popts;
  popts.max_read_retries = 10;
  popts.max_write_retries = 10;
  popts.retry_backoff_base = std::chrono::microseconds(0);
  auto pool = std::make_unique<storage::BufferPool>(
      top, config.pool_frames, /*shards=*/1, popts);

  rtree::RTreeOptions topts;
  topts.max_entries = config.tree_max_entries;
  wal::DurableOptions dopts;
  dopts.checkpoint_every = config.checkpoint_every;

  std::optional<rtree::RTree> plain;     // non-durable mode
  std::unique_ptr<wal::DurableRTree> durable;  // durable mode
  if (config.durable) {
    auto created = wal::DurableRTree::Create(pool.get(), topts, dopts);
    if (!created.ok()) {
      outcome.failed = true;
      outcome.message = "durable create: " + created.status().ToString();
      return outcome;
    }
    durable = std::move(created).value();
  } else {
    auto created = rtree::RTree::Create(pool.get(), topts);
    if (!created.ok()) {
      outcome.failed = true;
      outcome.message = "tree create: " + created.status().ToString();
      return outcome;
    }
    plain.emplace(std::move(created).value());
  }
  auto query_tree = [&]() -> const rtree::RTree& {
    return durable != nullptr ? durable->tree() : *plain;
  };

  // Seed data: PACK-built points, mirrored into the oracle.
  Random init_rng(config.seed ^ 0x5eed5eedULL);
  const auto points =
      workload::UniformPoints(&init_rng, config.initial_entries, frame);
  std::vector<storage::Rid> rids;
  rids.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<PageId>(i), 0});
  }
  std::vector<Entry> initial = pack::MakeLeafEntries(points, rids);
  if (!initial.empty()) {
    const Status packed =
        durable != nullptr ? durable->BulkLoad(initial)
                           : pack::Pack(&*plain, initial);
    if (!packed.ok()) {
      outcome.failed = true;
      outcome.message = "initial pack: " + packed.ToString();
      return outcome;
    }
  }
  Oracle oracle(std::move(initial));
  uint64_t next_rid = config.initial_entries;

  std::unique_ptr<service::QueryService> svc;
  auto make_service = [&] {
    svc = std::make_unique<service::QueryService>(&query_tree(), nullptr);
    if (durable != nullptr) svc->BindWriter(durable.get());
  };
  if (config.use_service) make_service();

  bool faults_armed = false;

  auto fail = [&](size_t op_index, std::string message) {
    outcome.failed = true;
    outcome.failing_op = op_index;
    outcome.message = std::move(message);
  };

  auto validate = [&](size_t op_index) {
    ++outcome.validations;
    ValidatorOptions vopts;
    vopts.measure_quality = false;
    // The CRC scan assumes a quiet medium; while transient faults are
    // armed an injected read bit flip would masquerade as real rot.
    vopts.check_checksums = !faults_armed;
    const ValidationReport report = TreeValidator(vopts).Check(query_tree());
    if (!report.ok()) fail(op_index, "validator: " + report.ToString());
    return report.ok();
  };

  // Mutations route through the service write path when both a writer
  // and a service exist, else through the durable tree, else directly.
  auto do_insert = [&](const Rect& rect, const storage::Rid& rid) {
    if (durable == nullptr) return plain->Insert(rect, rid);
    if (svc != nullptr) return svc->ExecuteWrite(service::InsertOp{rect, rid});
    return durable->Insert(rect, rid);
  };
  auto do_delete = [&](const Rect& rect, const storage::Rid& rid) {
    if (durable == nullptr) return plain->Delete(rect, rid);
    if (svc != nullptr) return svc->ExecuteWrite(service::DeleteOp{rect, rid});
    return durable->Delete(rect, rid);
  };
  auto do_update = [&](const Rect& old_rect, const storage::Rid& old_rid,
                       const Rect& new_rect, const storage::Rid& new_rid) {
    if (durable == nullptr) {
      return plain->Update(old_rect, old_rid, new_rect, new_rid);
    }
    if (svc != nullptr) {
      return svc->ExecuteWrite(
          service::UpdateOp{old_rect, old_rid, new_rect, new_rid});
    }
    return durable->Update(old_rect, old_rid, new_rect, new_rid);
  };

  auto classify = [&](size_t op_index, DiffVerdict verdict) {
    ++outcome.queries;
    switch (verdict) {
      case DiffVerdict::kMatch:
        break;
      case DiffVerdict::kDegradedSubset:
        ++outcome.degraded_subsets;
        break;
      case DiffVerdict::kWrongAnswer:
        ++outcome.wrong_answers;
        fail(op_index, "query result diverges from oracle");
        break;
    }
  };

  // Direct-path search options (degraded only while faults are armed,
  // so clean episodes demand exact answers).
  storage::PageQuarantine quarantine;

  for (size_t i = 0; i < trace.size() && !outcome.failed; ++i) {
    const Op& op = trace[i];
    rtree::SearchOptions sopts;
    sopts.degraded_ok = faults_armed;
    sopts.quarantine = &quarantine;
    service::QueryOptions qopts;
    qopts.degraded_ok = faults_armed;

    switch (op.kind) {
      case OpKind::kInsert: {
        const storage::Rid rid{static_cast<PageId>(next_rid++), 0};
        const Status st = do_insert(op.rect, rid);
        if (!st.ok()) {
          fail(i, "insert: " + st.ToString());
          break;
        }
        oracle.Insert(op.rect, rid);
        ++outcome.mutations;
        break;
      }
      case OpKind::kDelete: {
        if (oracle.size() == 0) break;
        const Entry victim = oracle.entries()[op.a % oracle.size()];
        const Status st = do_delete(victim.mbr, victim.AsRid());
        if (!st.ok()) {
          fail(i, "delete: " + st.ToString());
          break;
        }
        oracle.Delete(victim.mbr, victim.AsRid());
        ++outcome.mutations;
        break;
      }
      case OpKind::kUpdate: {
        if (oracle.size() == 0) break;
        const Entry victim = oracle.entries()[op.a % oracle.size()];
        const storage::Rid rid = victim.AsRid();
        const Status st = do_update(victim.mbr, rid, op.rect, rid);
        if (!st.ok()) {
          fail(i, "update: " + st.ToString());
          break;
        }
        oracle.Delete(victim.mbr, rid);
        oracle.Insert(op.rect, rid);
        ++outcome.mutations;
        break;
      }
      case OpKind::kWindow:
      case OpKind::kContained: {
        const bool contained = op.kind == OpKind::kContained;
        std::vector<LeafHit> hits;
        bool degraded = false;
        if (svc != nullptr) {
          auto r = svc->RunSync(service::WindowQuery{op.rect, contained},
                                qopts);
          if (!r.ok()) {
            fail(i, "window: " + r.status().ToString());
            break;
          }
          hits = std::move(r->hits);
          degraded = r->degraded;
        } else {
          rtree::SearchStats stats;
          auto r = contained
                       ? query_tree().SearchContainedIn(op.rect, &stats, sopts)
                       : query_tree().SearchIntersects(op.rect, &stats, sopts);
          if (!r.ok()) {
            fail(i, "window: " + r.status().ToString());
            break;
          }
          hits = std::move(r).value();
          degraded = stats.degraded;
        }
        classify(i, CompareHits(hits,
                                contained ? oracle.ContainedIn(op.rect)
                                          : oracle.Intersects(op.rect),
                                degraded));
        break;
      }
      case OpKind::kPoint: {
        std::vector<LeafHit> hits;
        bool degraded = false;
        if (svc != nullptr) {
          auto r = svc->RunSync(service::PointQuery{op.point}, qopts);
          if (!r.ok()) {
            fail(i, "point: " + r.status().ToString());
            break;
          }
          hits = std::move(r->hits);
          degraded = r->degraded;
        } else {
          rtree::SearchStats stats;
          auto r = query_tree().SearchPoint(op.point, &stats, sopts);
          if (!r.ok()) {
            fail(i, "point: " + r.status().ToString());
            break;
          }
          hits = std::move(r).value();
          degraded = stats.degraded;
        }
        classify(i, CompareHits(hits, oracle.AtPoint(op.point), degraded));
        break;
      }
      case OpKind::kKnn: {
        std::vector<rtree::Neighbor> neighbors;
        bool degraded = false;
        if (svc != nullptr) {
          auto r = svc->RunSync(service::KnnQuery{op.point, op.a}, qopts);
          if (!r.ok()) {
            fail(i, "knn: " + r.status().ToString());
            break;
          }
          neighbors = std::move(r->neighbors);
          degraded = r->degraded;
        } else {
          rtree::SearchStats stats;
          auto r =
              rtree::SearchNearest(query_tree(), op.point, op.a, &stats, sopts);
          if (!r.ok()) {
            fail(i, "knn: " + r.status().ToString());
            break;
          }
          neighbors = std::move(r).value();
          degraded = stats.degraded;
        }
        classify(i, CompareNeighbors(neighbors, oracle, op.point, op.a,
                                     degraded));
        break;
      }
      case OpKind::kSearchBatch: {
        // Windows derived deterministically from the op fields: op.rect
        // shifted along its own diagonal, 1 + a%6 of them.
        const size_t nwin = 1 + op.a % 6;
        std::vector<Rect> windows;
        windows.reserve(nwin);
        const double dx = op.rect.hi.x - op.rect.lo.x;
        const double dy = op.rect.hi.y - op.rect.lo.y;
        for (size_t j = 0; j < nwin; ++j) {
          const double shift =
              (static_cast<double>(j) - static_cast<double>(nwin) / 2.0) *
              0.5;
          windows.push_back(Rect(op.rect.lo.x + shift * dx,
                                 op.rect.lo.y + shift * dy,
                                 op.rect.hi.x + shift * dx,
                                 op.rect.hi.y + shift * dy));
        }
        std::vector<rtree::BatchHits> batch;
        if (svc != nullptr) {
          auto r = svc->RunSync(service::BatchWindowQuery{windows, false},
                                qopts);
          if (!r.ok()) {
            fail(i, "search-batch: " + r.status().ToString());
            break;
          }
          batch = std::move(r->batch);
        } else {
          auto r = query_tree().SearchBatch(windows, false, nullptr, sopts);
          if (!r.ok()) {
            fail(i, "search-batch: " + r.status().ToString());
            break;
          }
          batch = std::move(r).value();
        }
        if (batch.size() != windows.size()) {
          fail(i, "search-batch: result count mismatch");
          break;
        }
        for (size_t j = 0; j < windows.size() && !outcome.failed; ++j) {
          classify(i, CompareHits(batch[j].hits,
                                  oracle.Intersects(windows[j]),
                                  batch[j].degraded));
          if (outcome.failed || faults_armed) continue;
          // On a quiet medium the batched answer must also match the
          // single-window path hit for hit, in the same order.
          auto single = query_tree().SearchIntersects(windows[j]);
          if (!single.ok()) {
            fail(i, "search-batch single: " + single.status().ToString());
            break;
          }
          const std::vector<LeafHit>& s = single.value();
          bool same = s.size() == batch[j].hits.size();
          for (size_t h = 0; same && h < s.size(); ++h) {
            same = s[h].mbr == batch[j].hits[h].mbr &&
                   s[h].rid == batch[j].hits[h].rid;
          }
          if (!same) {
            fail(i, "search-batch window " + std::to_string(j) +
                        " diverges from single-window search");
          }
        }
        break;
      }
      case OpKind::kRepack: {
        if (durable != nullptr) break;  // would bypass the log
        const Status st = pack::Repack(&*plain);
        if (!st.ok()) {
          fail(i, "repack: " + st.ToString());
          break;
        }
        ++outcome.mutations;
        break;
      }
      case OpKind::kRepackRegion: {
        if (durable != nullptr) break;  // would bypass the log
        auto st = pack::RepackRegion(&*plain, op.rect);
        if (!st.ok()) {
          fail(i, "repack-region: " + st.status().ToString());
          break;
        }
        ++outcome.mutations;
        break;
      }
      case OpKind::kCheckpoint: {
        if (durable == nullptr) break;
        const Status st = durable->Checkpoint();
        if (!st.ok()) fail(i, "checkpoint: " + st.ToString());
        break;
      }
      case OpKind::kCrash: {
        if (durable == nullptr || !wcache.has_value()) {
          fail(i, "crash op requires a durable StressConfig");
          break;
        }
        // Simulated power loss: drop the service, the writer, and the
        // pool without any orderly shutdown (their teardown flushes land
        // in the volatile cache), wipe everything not fsynced, then
        // recover from the bytes that survived. Every acked mutation was
        // WAL-fsynced before its commit returned, so the recovered state
        // must equal the oracle EXACTLY.
        const PageId meta = durable->meta_page();
        const PageId anchor = durable->anchor_page();
        svc.reset();
        durable.reset();
        pool.reset();
        wcache->DropUnsynced();
        faulty.ClearFaults();  // recovery itself runs on a quiet medium
        const bool refault = faults_armed;
        faults_armed = false;
        pool = std::make_unique<storage::BufferPool>(
            top, config.pool_frames, /*shards=*/1, popts);
        auto reopened =
            wal::DurableRTree::Open(pool.get(), meta, anchor, dopts);
        if (!reopened.ok()) {
          fail(i, "recovery: " + reopened.status().ToString());
          break;
        }
        durable = std::move(reopened).value();
        if (config.use_service) make_service();
        ++outcome.crashes;
        // Differential oracle check over the FULL state: a window that
        // covers everything, demanded exact (never degraded).
        const Rect everything(-1e18, -1e18, 1e18, 1e18);
        auto all = query_tree().SearchIntersects(everything);
        if (!all.ok()) {
          fail(i, "post-recovery scan: " + all.status().ToString());
          break;
        }
        classify(i, CompareHits(all.value(), oracle.Intersects(everything),
                                /*degraded=*/false));
        if (!outcome.failed) validate(i);
        if (refault) {
          faulty.SetPlan(config.fault_plan);
          faults_armed = true;
        }
        break;
      }
      case OpKind::kFaultOn:
        faulty.SetPlan(config.fault_plan);
        faults_armed = true;
        break;
      case OpKind::kFaultOff:
        faulty.ClearFaults();
        faults_armed = false;
        break;
      case OpKind::kValidate:
        validate(i);
        break;
      case OpKind::kCorruptMbr: {
        if (durable != nullptr) break;  // raw page pokes bypass the log
        const Status st = CorruptInnerMbr(&*plain, op.a);
        if (!st.ok()) fail(i, "corrupt-mbr: " + st.ToString());
        break;
      }
    }

    if (!outcome.failed && config.validate_every != 0 &&
        (i + 1) % config.validate_every == 0) {
      validate(i);
    }
  }

  // Closing validation on a quiet medium — this is where a corruption
  // planted late in the trace is guaranteed to surface.
  if (!outcome.failed) {
    faulty.ClearFaults();
    faults_armed = false;
    validate(trace.empty() ? 0 : trace.size() - 1);
  }
  return outcome;
}

// --- Shrinker ---------------------------------------------------------------

std::vector<Op> ShrinkTrace(
    std::vector<Op> trace,
    const std::function<bool(const std::vector<Op>&)>& still_fails) {
  if (trace.empty() || !still_fails(trace)) return trace;
  size_t chunk = std::max<size_t>(1, trace.size() / 2);
  for (;;) {
    bool removed = true;
    while (removed) {
      removed = false;
      size_t start = 0;
      while (start < trace.size()) {
        std::vector<Op> candidate;
        candidate.reserve(trace.size());
        candidate.insert(candidate.end(), trace.begin(),
                         trace.begin() + static_cast<ptrdiff_t>(start));
        const size_t end = std::min(trace.size(), start + chunk);
        candidate.insert(candidate.end(),
                         trace.begin() + static_cast<ptrdiff_t>(end),
                         trace.end());
        if (!candidate.empty() && still_fails(candidate)) {
          trace = std::move(candidate);
          removed = true;
          // re-test the same offset: it now holds different ops
        } else {
          start += chunk;
        }
      }
    }
    if (chunk == 1) break;
    chunk = std::max<size_t>(1, chunk / 2);
  }
  return trace;
}

}  // namespace pictdb::check
