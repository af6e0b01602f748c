#include "wal/durable_tree.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "check/invariants.h"
#include "common/logging.h"
#include "pack/pack.h"
#include "rtree/node.h"
#include "rtree/split.h"

namespace pictdb::wal {
namespace {

rtree::Entry LeafEntry(const geom::Rect& mbr, uint64_t payload) {
  rtree::Entry e;
  e.mbr = mbr;
  e.payload = payload;
  return e;
}

/// Erase the first entry matching (mbr, payload) from `entries`; false
/// if absent.
bool EraseEntry(std::vector<rtree::Entry>* entries, const geom::Rect& mbr,
                uint64_t payload) {
  for (auto it = entries->begin(); it != entries->end(); ++it) {
    if (it->payload == payload && it->mbr == mbr) {
      entries->erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace

void DurableRTree::AttachTree() {
  tree_->EnableConcurrentReads(true);
  tree_->SetPageRetireHook([this](storage::PageId id) {
    const uint64_t epoch = gate_.Advance();
    MutexLock lock(&retired_mu_);
    retired_.emplace_back(epoch, id);
    return Status::OK();
  });
}

StatusOr<std::unique_ptr<DurableRTree>> DurableRTree::Create(
    storage::BufferPool* pool, const rtree::RTreeOptions& tree_options,
    const DurableOptions& options) {
  auto tree = rtree::RTree::Create(pool, tree_options);
  if (!tree.ok()) return tree.status();

  auto wal = Wal::Create(pool->disk());
  if (!wal.ok()) return wal.status();

  auto dt = std::make_unique<DurableRTree>(Passkey{}, pool, options);
  dt->meta_page_ = tree->meta_page();
  dt->anchor_page_ = wal->anchor_page();
  dt->tree_.emplace(std::move(tree).value());
  dt->AttachTree();
  {
    MutexLock lock(&dt->mu_);
    dt->wal_.emplace(std::move(wal).value());
    // Anchor an initial (empty) snapshot so the chain is never without
    // one — recovery always finds a base state to replay onto.
    if (Status st = dt->CheckpointLocked(); !st.ok()) return st;
  }
  dt->recovery_info_.opened = true;
  return dt;
}

StatusOr<std::unique_ptr<DurableRTree>> DurableRTree::Open(
    storage::BufferPool* pool, storage::PageId meta_page,
    storage::PageId anchor_page, const DurableOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  ScanResult scan;
  auto wal = Wal::Open(pool->disk(), anchor_page, &scan);
  if (!wal.ok()) return wal.status();

  auto replay = Replay(scan.records);
  if (!replay.ok()) return replay.status();

  auto dt = std::make_unique<DurableRTree>(Passkey{}, pool, options);
  dt->meta_page_ = meta_page;
  dt->anchor_page_ = anchor_page;
  dt->recovery_info_.opened = true;
  dt->recovery_info_.tail_torn = scan.tail_torn;
  dt->recovery_info_.discarded_bytes = scan.discarded_bytes;
  dt->recovery_info_.snapshot_entries = replay->snapshot_entries;
  dt->recovery_info_.replayed_ops = replay->replayed_ops;

  const bool clean = !scan.tail_torn && !scan.records.empty() &&
                     scan.records.back().type == RecordType::kCleanShutdown;
  // Every structural invariant of an on-disk tree, but no pool flush
  // and CRC scan and no quality sweep, so the check costs one walk.
  const check::TreeValidator sound(
      {.check_checksums = false, .measure_quality = false});
  bool reattached = false;
  if (clean) {
    // Fast path: the marker promises the on-disk tree equals the logged
    // state — but verify before trusting it (the final flush itself may
    // have torn; then the marker lies and we rebuild anyway).
    auto tree = rtree::RTree::Open(pool, meta_page);
    if (tree.ok() && sound.Check(*tree).ok() &&
        tree->Size() == replay->entries.size()) {
      dt->tree_.emplace(std::move(tree).value());
      dt->recovery_info_.clean_shutdown = true;
      reattached = true;
    }
  }

  if (!reattached) {
    // Rebuild: the on-disk tree is just a cache of the log. Reclaim its
    // pages when it is still readable; otherwise leak them (a leak is
    // safe, reusing a page that is secretly live is not).
    {
      auto old = rtree::RTree::Open(pool, meta_page);
      if (old.ok() && sound.Check(*old).ok()) {
        if (Status st = old->Clear(); !st.ok()) {
          PICTDB_LOG_WARN()
              << "recovery could not free old tree pages: " << st.ToString();
        }
      } else {
        PICTDB_LOG_WARN() << "recovery leaks pages of unreadable old tree "
                             "at meta page "
                          << meta_page;
      }
    }

    rtree::RTreeOptions topts = replay->tree_options;
    if (!replay->have_options) {
      // No complete snapshot in the log (crash during the very first
      // checkpoint): fall back to the meta page if readable, else
      // defaults. The entry multiset is empty either way.
      auto old = rtree::RTree::Open(pool, meta_page);
      if (old.ok()) topts = old->options();
    }

    auto tree = rtree::RTree::CreateAt(pool, meta_page, topts);
    if (!tree.ok()) return tree.status();
    dt->tree_.emplace(std::move(tree).value());
    if (!replay->entries.empty()) {
      if (Status st =
              pack::Pack(&*dt->tree_, replay->entries,
                         {.criterion = pack::SortCriterion::kHilbert,
                          .strategy = pack::PackStrategy::kSortChunk});
          !st.ok()) {
        return st;
      }
    }
    dt->recovery_info_.recovered = true;
  }

  dt->AttachTree();
  {
    MutexLock lock(&dt->mu_);
    dt->wal_.emplace(std::move(wal).value());
    dt->next_lsn_ = replay->max_lsn + 1;
    if (!reattached) {
      // Re-anchor the log on a fresh snapshot of the rebuilt tree so the
      // replayed ops are folded in and a repeated crash replays from
      // here (recovery is idempotent).
      if (Status st = dt->CheckpointLocked(); !st.ok()) return st;
    } else {
      dt->ops_since_checkpoint_ = replay->replayed_ops;
    }
  }

  if (options.validate_after_recovery && !reattached) {
    check::ValidationReport report = check::TreeValidator().Check(*dt->tree_);
    if (!report.ok()) {
      return Status::Corruption("rebuilt tree failed validation:\n" +
                                report.ToString());
    }
  }

  dt->recovery_info_.elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start);
  return dt;
}

StatusOr<DurableRTree::ReplayResult> DurableRTree::Replay(
    const std::vector<Record>& records) {
  ReplayResult out;
  bool in_snapshot = false;
  std::vector<rtree::Entry> pending;
  rtree::RTreeOptions pending_opts;

  for (const Record& rec : records) {
    out.max_lsn = std::max(out.max_lsn, rec.lsn);
    switch (rec.type) {
      case RecordType::kSnapshotBegin:
        in_snapshot = true;
        pending.clear();
        pending.reserve(rec.count);
        pending_opts.max_entries = rec.tree_max_entries;
        pending_opts.min_entries = rec.tree_min_entries;
        pending_opts.split = static_cast<rtree::SplitAlgorithm>(rec.tree_split);
        pending_opts.forced_reinsert = rec.tree_forced_reinsert != 0;
        break;
      case RecordType::kSnapshotChunk:
        if (in_snapshot) {
          pending.insert(pending.end(), rec.entries.begin(),
                         rec.entries.end());
        }
        break;
      case RecordType::kSnapshotEnd:
        if (in_snapshot) {
          in_snapshot = false;
          out.entries = std::move(pending);
          pending.clear();
          out.tree_options = pending_opts;
          out.have_options = true;
          out.snapshot_entries = out.entries.size();
          out.replayed_ops = 0;  // ops before this snapshot are folded in
        }
        break;
      case RecordType::kInsert:
        out.entries.push_back(LeafEntry(rec.a, rec.rid_a));
        out.replayed_ops++;
        break;
      case RecordType::kDelete:
        if (!EraseEntry(&out.entries, rec.a, rec.rid_a)) {
          // Cannot happen for a log produced by this layer (presence is
          // pre-checked before logging); tolerate rather than fail.
          PICTDB_LOG_WARN() << "WAL replay: delete of absent entry at lsn "
                            << rec.lsn;
        }
        out.replayed_ops++;
        break;
      case RecordType::kUpdate:
        if (!EraseEntry(&out.entries, rec.a, rec.rid_a)) {
          PICTDB_LOG_WARN() << "WAL replay: update of absent entry at lsn "
                            << rec.lsn;
        }
        out.entries.push_back(LeafEntry(rec.b, rec.rid_b));
        out.replayed_ops++;
        break;
      case RecordType::kCleanShutdown:
      case RecordType::kPadding:
        break;
    }
  }
  if (in_snapshot) {
    // The snapshot group occupies pages appends never rewrite, so a
    // half-group can only mean external damage to anchored pages.
    return Status::Corruption("WAL ends inside a snapshot group");
  }
  return out;
}

Status DurableRTree::CheckWritableLocked() {
  if (closed_) return Status::Internal("durable tree is closed");
  if (poisoned_) {
    return Status::Internal(
        "durable tree poisoned by an earlier commit failure; reopen to "
        "recover from the log");
  }
  return Status::OK();
}

Status DurableRTree::CommitLocked(const Record& record) {
  // Log-then-apply. The sync is the commit point: after it the op
  // survives any crash; before it the op never happened. A failure in
  // EITHER half leaves log and memory potentially disagreeing, so the
  // tree is poisoned until a reopen replays the truth.
  if (Status st = wal_->Append(record); !st.ok()) {
    poisoned_ = true;
    return st;
  }
  if (Status st = wal_->Sync(); !st.ok()) {
    poisoned_ = true;
    return st;
  }

  Status applied;
  switch (record.type) {
    case RecordType::kInsert:
      applied = tree_->Insert(record.a,
                              LeafEntry(record.a, record.rid_a).AsRid());
      break;
    case RecordType::kDelete:
      applied = tree_->Delete(record.a,
                              LeafEntry(record.a, record.rid_a).AsRid());
      break;
    case RecordType::kUpdate:
      applied = tree_->Update(record.a, LeafEntry(record.a, record.rid_a).AsRid(),
                              record.b, LeafEntry(record.b, record.rid_b).AsRid());
      break;
    default:
      applied = Status::Internal("unexpected record type in commit");
      break;
  }
  if (!applied.ok()) {
    poisoned_ = true;
    return applied;
  }
  next_lsn_++;
  ops_since_checkpoint_++;
  return Status::OK();
}

Status DurableRTree::Insert(const geom::Rect& mbr, const storage::Rid& rid) {
  {
    MutexLock lock(&mu_);
    if (Status st = CheckWritableLocked(); !st.ok()) return st;

    Record rec;
    rec.type = RecordType::kInsert;
    rec.lsn = next_lsn_;
    rec.a = mbr;
    rec.rid_a = rtree::Entry::PayloadFromRid(rid);
    if (Status st = CommitLocked(rec); !st.ok()) return st;
    stats_.inserts++;
    if (ops_since_checkpoint_ >= options_.checkpoint_every) {
      if (Status st = CheckpointLocked(); !st.ok()) {
        PICTDB_LOG_WARN() << "checkpoint failed (will retry): "
                          << st.ToString();
      }
    }
  }
  DrainRetired();
  return Status::OK();
}

Status DurableRTree::Delete(const geom::Rect& mbr, const storage::Rid& rid) {
  {
    MutexLock lock(&mu_);
    if (Status st = CheckWritableLocked(); !st.ok()) return st;

    // Presence pre-check BEFORE logging: a logged-but-inapplicable
    // delete would diverge replayed state from applied state.
    auto present = tree_->Contains(mbr, rid);
    if (!present.ok()) return present.status();
    if (!present.value()) {
      return Status::NotFound("no entry with the given (mbr, rid)");
    }

    Record rec;
    rec.type = RecordType::kDelete;
    rec.lsn = next_lsn_;
    rec.a = mbr;
    rec.rid_a = rtree::Entry::PayloadFromRid(rid);
    if (Status st = CommitLocked(rec); !st.ok()) return st;
    stats_.deletes++;
    if (ops_since_checkpoint_ >= options_.checkpoint_every) {
      if (Status st = CheckpointLocked(); !st.ok()) {
        PICTDB_LOG_WARN() << "checkpoint failed (will retry): "
                          << st.ToString();
      }
    }
  }
  DrainRetired();
  return Status::OK();
}

Status DurableRTree::Update(const geom::Rect& old_mbr,
                            const storage::Rid& old_rid,
                            const geom::Rect& new_mbr,
                            const storage::Rid& new_rid) {
  {
    MutexLock lock(&mu_);
    if (Status st = CheckWritableLocked(); !st.ok()) return st;

    auto present = tree_->Contains(old_mbr, old_rid);
    if (!present.ok()) return present.status();
    if (!present.value()) {
      return Status::NotFound("no entry with the given old (mbr, rid)");
    }

    Record rec;
    rec.type = RecordType::kUpdate;
    rec.lsn = next_lsn_;
    rec.a = old_mbr;
    rec.rid_a = rtree::Entry::PayloadFromRid(old_rid);
    rec.b = new_mbr;
    rec.rid_b = rtree::Entry::PayloadFromRid(new_rid);
    if (Status st = CommitLocked(rec); !st.ok()) return st;
    stats_.updates++;
    if (ops_since_checkpoint_ >= options_.checkpoint_every) {
      if (Status st = CheckpointLocked(); !st.ok()) {
        PICTDB_LOG_WARN() << "checkpoint failed (will retry): "
                          << st.ToString();
      }
    }
  }
  DrainRetired();
  return Status::OK();
}

Status DurableRTree::BulkLoad(std::vector<rtree::Entry> entries) {
  MutexLock lock(&mu_);
  if (Status st = CheckWritableLocked(); !st.ok()) return st;
  if (tree_->Size() != 0) {
    return Status::InvalidArgument("BulkLoad requires an empty tree");
  }
  if (Status st = pack::Pack(
          &*tree_, std::move(entries),
          {.criterion = pack::SortCriterion::kHilbert,
           .strategy = pack::PackStrategy::kSortChunk});
      !st.ok()) {
    return st;
  }
  return CheckpointLocked();
}

Status DurableRTree::CheckpointLocked() {
  auto leaves = tree_->CollectAllEntries();
  if (!leaves.ok()) return leaves.status();
  std::vector<rtree::Entry> entries;
  entries.reserve(leaves->size());
  for (const rtree::LeafHit& hit : leaves.value()) {
    entries.push_back(LeafEntry(hit.mbr, rtree::Entry::PayloadFromRid(hit.rid)));
  }
  if (Status st = wal_->Rotate(
          BuildSnapshotRecords(entries, tree_->options(), next_lsn_));
      !st.ok()) {
    return st;
  }
  next_lsn_++;
  ops_since_checkpoint_ = 0;
  stats_.checkpoints++;
  return Status::OK();
}

Status DurableRTree::Checkpoint() {
  MutexLock lock(&mu_);
  if (Status st = CheckWritableLocked(); !st.ok()) return st;
  return CheckpointLocked();
}

Status DurableRTree::Close() {
  MutexLock lock(&mu_);
  if (closed_) return Status::OK();
  if (poisoned_) {
    closed_ = true;
    return Status::Internal(
        "closed a poisoned durable tree without a clean-shutdown marker; "
        "the next open recovers from the log");
  }
  closed_ = true;

  if (Status st = CheckpointLocked(); !st.ok()) return st;
  if (Status st = pool_->FlushAll(); !st.ok()) return st;
  if (Status st = pool_->disk()->Sync(); !st.ok()) return st;

  // Only now — with every tree page durably equal to the snapshot — may
  // the marker promise that reopen can trust the on-disk tree.
  Record rec;
  rec.type = RecordType::kCleanShutdown;
  rec.lsn = next_lsn_;
  if (Status st = wal_->Append(rec); !st.ok()) return st;
  if (Status st = wal_->Sync(); !st.ok()) return st;
  next_lsn_++;
  return Status::OK();
}

void DurableRTree::DrainRetired() {
  const uint64_t min_active = gate_.MinActive();
  std::vector<storage::PageId> free_now;
  {
    MutexLock lock(&retired_mu_);
    auto keep = retired_.begin();
    for (auto& [epoch, page] : retired_) {
      if (epoch < min_active) {
        free_now.push_back(page);
      } else {
        *keep++ = {epoch, page};
      }
    }
    retired_.erase(keep, retired_.end());
  }
  if (free_now.empty()) return;
  for (storage::PageId id : free_now) {
    if (Status st = pool_->FreePage(id); !st.ok()) {
      PICTDB_LOG_WARN() << "failed to free retired page " << id << ": "
                        << st.ToString();
    }
  }
  MutexLock lock(&mu_);
  stats_.reclaimed_pages += free_now.size();
}

MutationStatsSnapshot DurableRTree::stats() const {
  MutexLock lock(&mu_);
  MutationStatsSnapshot s = stats_;
  MutexLock rlock(&retired_mu_);
  s.retired_pages = s.reclaimed_pages + retired_.size();
  return s;
}

WalStats DurableRTree::wal_stats() const {
  MutexLock lock(&mu_);
  return wal_->stats();
}

uint64_t DurableRTree::wal_chain_bytes() const {
  MutexLock lock(&mu_);
  return wal_->chain_bytes();
}

bool DurableRTree::poisoned() const {
  MutexLock lock(&mu_);
  return poisoned_;
}

}  // namespace pictdb::wal
