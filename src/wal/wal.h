#ifndef PICTDB_WAL_WAL_H_
#define PICTDB_WAL_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "storage/disk_manager.h"
#include "wal/record.h"

namespace pictdb::wal {

/// Counters for the log's physical behaviour.
struct WalStats {
  uint64_t appended_records = 0;
  uint64_t appended_bytes = 0;
  uint64_t syncs = 0;
  uint64_t rotations = 0;
  uint64_t rotation_retries = 0;
};

/// What Open() found while scanning the chain.
struct ScanResult {
  std::vector<Record> records;  // committed prefix, in append order
  uint64_t committed_bytes = 0;
  uint64_t discarded_bytes = 0;  // torn tail dropped at open
  bool tail_torn = false;
};

/// Append-only write-ahead log on a chain of raw disk pages.
///
/// The log talks to the DiskManager directly, bypassing the buffer pool:
/// WAL records carry their own CRC framing, so the pool's page trailer
/// would be redundant, and the log must control exactly when bytes reach
/// the disk (Sync is the commit barrier).
///
/// Physical layout. Each chain page is
///   [u32 magic][u32 next_page][payload bytes ...]
/// and the record stream runs across the payload areas in chain order.
/// Records are framed as [u32 len][u32 crc32(payload)][payload]; a zero
/// len terminates the stream (pages are zero-allocated, so the space
/// past the tail reads as end-of-log). A frame whose length is absurd or
/// whose CRC mismatches marks a torn tail: everything before it is the
/// committed prefix, everything from it on is discarded.
///
/// The anchor page holds two generation-stamped slots naming the head of
/// the current chain. Rotation writes the NEW chain completely, syncs,
/// re-reads it to verify (catching silently torn writes), and only then
/// overwrites the older slot — a crash anywhere leaves at least one slot
/// pointing at a complete, valid chain.
class Wal {
 public:
  /// Smallest page size that holds both anchor slots; Create and Open
  /// reject smaller pages with InvalidArgument.
  static constexpr uint32_t kMinPageSize = 88;

  /// Allocate an anchor page and an empty first chain on `disk`.
  /// The caller should immediately Rotate() an initial snapshot so the
  /// chain is never without one.
  static StatusOr<Wal> Create(storage::DiskManager* disk);

  /// Attach to the log anchored at `anchor_page`, scan the current
  /// chain, and report the committed record prefix in `*scan`. A torn
  /// tail is physically truncated (the tail page is rewritten without
  /// the torn bytes) so subsequent appends extend the committed prefix.
  static StatusOr<Wal> Open(storage::DiskManager* disk,
                            storage::PageId anchor_page, ScanResult* scan);

  Wal(Wal&&) = default;
  Wal& operator=(Wal&&) = default;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append one framed record to the tail. NOT durable until Sync().
  Status Append(const Record& record);

  /// Durability barrier: all appended records survive a crash after OK.
  Status Sync();

  /// Replace the chain with a fresh one holding `snapshot` (typically a
  /// snapshot group from BuildSnapshotRecords). Verifies the new chain
  /// by read-back before re-anchoring; on any failure the old chain
  /// remains anchored and the log keeps appending to it.
  Status Rotate(const std::vector<Record>& snapshot);

  storage::PageId anchor_page() const { return anchor_page_; }
  /// Bytes of committed+appended record stream in the current chain.
  uint64_t chain_bytes() const { return chain_bytes_; }
  uint64_t chain_pages() const { return chain_.size(); }
  const WalStats& stats() const { return stats_; }

 private:
  Wal(storage::DiskManager* disk, storage::PageId anchor_page)
      : disk_(disk), anchor_page_(anchor_page) {}

  /// Payload bytes per chain page (page_size minus the chain header).
  uint32_t PagePayload() const;

  /// Read a chain page with bounded retry of transient IOErrors.
  Status ReadPageRetry(storage::PageId id, char* out) const;
  Status WritePageRetry(storage::PageId id, const char* data) const;

  /// Scan the chain starting at `head` into a contiguous stream; parse
  /// the committed prefix. Used by Open and by rotation verification.
  static Status ScanChain(storage::DiskManager* disk, storage::PageId head,
                          ScanResult* out, std::vector<storage::PageId>* pages,
                          std::string* stream);

  /// Write `stream` as a fresh chain; returns the page ids used.
  Status WriteChain(const std::string& stream,
                    std::vector<storage::PageId>* pages) const;

  /// Flush the in-memory tail page image to disk.
  Status FlushTail();

  /// Point the anchor's older slot at `head` with the next generation.
  Status WriteAnchor(storage::PageId head);

  storage::DiskManager* disk_;
  storage::PageId anchor_page_;
  uint64_t generation_ = 0;

  std::vector<storage::PageId> chain_;  // head first
  uint64_t chain_bytes_ = 0;            // framed stream bytes in chain
  /// In-memory image of the last chain page (header + payload), mirrored
  /// to disk by FlushTail after each append.
  std::string tail_image_;
  uint32_t tail_used_ = 0;  // payload bytes used in the tail page

  WalStats stats_;
};

}  // namespace pictdb::wal

#endif  // PICTDB_WAL_WAL_H_
