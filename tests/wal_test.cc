// Physical write-ahead-log tests: record codec round trips, chain
// append/scan, torn-tail truncation, rotation, and anchor-slot
// corruption. Crash-point coverage at the DurableRTree level lives in
// wal_crash_test.cc; these tests poke the log layer directly.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rtree/node.h"
#include "storage/disk_manager.h"
#include "storage/write_cache.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace pictdb::wal {
namespace {

using geom::Rect;
using storage::InMemoryDiskManager;
using storage::PageId;
using storage::Rid;

Record MakeInsert(uint64_t lsn) {
  Record r;
  r.type = RecordType::kInsert;
  r.lsn = lsn;
  const double x = static_cast<double>(lsn);
  r.a = Rect(x, x, x + 1, x + 1);
  r.rid_a = rtree::Entry::PayloadFromRid(
      Rid{static_cast<PageId>(lsn), static_cast<uint16_t>(lsn % 7)});
  return r;
}

// White-box anchor parsing (layout from wal.cc): two 24-byte slots at
// offsets 0 and 64, [magic][crc][generation u64][head u32][pad].
constexpr uint32_t kAnchorMagic = 0x57414C41u;

PageId AnchorHead(InMemoryDiskManager* disk, PageId anchor) {
  std::vector<char> page(disk->page_size());
  EXPECT_TRUE(disk->ReadPage(anchor, page.data()).ok());
  PageId head = storage::kInvalidPageId;
  uint64_t best_gen = 0;
  bool found = false;
  for (size_t off : {size_t{0}, size_t{64}}) {
    uint32_t magic;
    std::memcpy(&magic, page.data() + off, 4);
    if (magic != kAnchorMagic) continue;
    uint64_t gen;
    uint32_t slot_head;
    std::memcpy(&gen, page.data() + off + 8, 8);
    std::memcpy(&slot_head, page.data() + off + 16, 4);
    if (!found || gen > best_gen) {
      best_gen = gen;
      head = slot_head;
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no valid anchor slot";
  return head;
}

PageId NthChainPage(InMemoryDiskManager* disk, PageId head, size_t n) {
  std::vector<char> page(disk->page_size());
  PageId id = head;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(disk->ReadPage(id, page.data()).ok());
    std::memcpy(&id, page.data() + 4, 4);
  }
  return id;
}

// --- Record codec -----------------------------------------------------------

TEST(WalRecordTest, OpRecordsRoundTrip) {
  for (const RecordType type :
       {RecordType::kInsert, RecordType::kDelete, RecordType::kUpdate}) {
    Record r = MakeInsert(42);
    r.type = type;
    if (type == RecordType::kUpdate) {
      r.b = Rect(9, 9, 10, 10);
      r.rid_b = rtree::Entry::PayloadFromRid(Rid{99, 3});
    }
    const std::string payload = EncodeRecordPayload(r);
    auto decoded = DecodeRecordPayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->lsn, 42u);
    EXPECT_EQ(decoded->a, r.a);
    EXPECT_EQ(decoded->rid_a, r.rid_a);
    if (type == RecordType::kUpdate) {
      EXPECT_EQ(decoded->b, r.b);
      EXPECT_EQ(decoded->rid_b, r.rid_b);
    }
  }
}

TEST(WalRecordTest, SnapshotGroupRoundTrip) {
  std::vector<rtree::Entry> entries;
  for (size_t i = 0; i < 150; ++i) {  // spans 3 chunks of 64
    rtree::Entry e;
    const double x = static_cast<double>(i);
    e.mbr = Rect(x, x, x + 1, x + 1);
    e.payload = rtree::Entry::PayloadFromRid(Rid{static_cast<PageId>(i), 0});
    entries.push_back(e);
  }
  rtree::RTreeOptions opts;
  opts.max_entries = 25;
  opts.min_entries = 10;
  const std::vector<Record> group = BuildSnapshotRecords(entries, opts, 7);
  ASSERT_GE(group.size(), 5u);  // begin + 3 chunks + end
  EXPECT_EQ(group.front().type, RecordType::kSnapshotBegin);
  EXPECT_EQ(group.front().count, entries.size());
  EXPECT_EQ(group.front().tree_max_entries, 25u);
  EXPECT_EQ(group.back().type, RecordType::kSnapshotEnd);

  size_t total = 0;
  for (const Record& rec : group) {
    const std::string payload = EncodeRecordPayload(rec);
    auto decoded = DecodeRecordPayload(payload);
    ASSERT_TRUE(decoded.ok());
    if (decoded->type == RecordType::kSnapshotChunk) {
      for (const rtree::Entry& e : decoded->entries) {
        EXPECT_EQ(e.mbr, entries[total].mbr);
        EXPECT_EQ(e.payload, entries[total].payload);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, entries.size());
}

TEST(WalRecordTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeRecordPayload("").ok());
  EXPECT_FALSE(DecodeRecordPayload("\x00tooshort").ok());
  // Unknown type byte.
  std::string bogus = EncodeRecordPayload(MakeInsert(1));
  bogus[0] = 99;
  EXPECT_FALSE(DecodeRecordPayload(bogus).ok());
  // Truncated insert.
  std::string trunc = EncodeRecordPayload(MakeInsert(1));
  trunc.resize(trunc.size() - 1);
  EXPECT_FALSE(DecodeRecordPayload(trunc).ok());
}

TEST(WalRecordTest, PaddingCarriesOnlyLength) {
  Record pad;
  pad.type = RecordType::kPadding;
  pad.lsn = 0;
  pad.count = 37;
  const std::string payload = EncodeRecordPayload(pad);
  EXPECT_EQ(payload.size(), 9u + 37u);
  auto decoded = DecodeRecordPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, RecordType::kPadding);
  EXPECT_EQ(decoded->count, 37u);
}

// --- Chain append / scan ----------------------------------------------------

TEST(WalTest, AppendSyncReopenRoundTrip) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Wal wal = std::move(created).value();
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(wal.Append(MakeInsert(i)).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());

  ScanResult scan;
  auto reopened = Wal::Open(&disk, wal.anchor_page(), &scan);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(scan.tail_torn);
  EXPECT_EQ(scan.discarded_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[i].lsn, i + 1);
    EXPECT_EQ(scan.records[i].rid_a, MakeInsert(i + 1).rid_a);
  }
}

TEST(WalTest, RecordsSpanSmallPages) {
  // The smallest accepted page (88 bytes) leaves 80 payload bytes per
  // chain page; back-to-back 57-byte insert frames keep straddling page
  // boundaries.
  InMemoryDiskManager disk(Wal::kMinPageSize);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  for (uint64_t i = 1; i <= 40; ++i) {
    ASSERT_TRUE(wal.Append(MakeInsert(i)).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_GE(wal.chain_pages(), 40u * 57 / 80);

  ScanResult scan;
  auto reopened = Wal::Open(&disk, wal.anchor_page(), &scan);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(scan.records.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) EXPECT_EQ(scan.records[i].lsn, i + 1);
}

TEST(WalTest, RejectsPagesTooSmallForTheAnchor) {
  // Anchor slot 2 ends at byte 88: a 64-byte page cannot hold it.
  InMemoryDiskManager disk(64);
  EXPECT_TRUE(Wal::Create(&disk).status().IsInvalidArgument());
  ScanResult scan;
  EXPECT_TRUE(Wal::Open(&disk, 0, &scan).status().IsInvalidArgument());
  EXPECT_EQ(disk.page_count(), 0u) << "rejected before allocating";
}

TEST(WalTest, ReopenThenAppendExtendsCommittedPrefix) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  ASSERT_TRUE(wal.Append(MakeInsert(1)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  const PageId anchor = wal.anchor_page();

  ScanResult scan;
  auto second = Wal::Open(&disk, anchor, &scan);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(scan.records.size(), 1u);
  ASSERT_TRUE(second->Append(MakeInsert(2)).ok());
  ASSERT_TRUE(second->Sync().ok());

  ScanResult scan2;
  auto third = Wal::Open(&disk, anchor, &scan2);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(scan2.records.size(), 2u);
  EXPECT_EQ(scan2.records[1].lsn, 2u);
}

TEST(WalTest, UnsyncedAppendsVanishOnCrash) {
  InMemoryDiskManager base(512);
  storage::WriteCacheDiskManager disk(&base);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  ASSERT_TRUE(wal.Append(MakeInsert(1)).ok());
  ASSERT_TRUE(wal.Append(MakeInsert(2)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Append(MakeInsert(3)).ok());  // acked=false: no sync

  disk.DropUnsynced();  // power loss

  ScanResult scan;
  auto reopened = Wal::Open(&disk, wal.anchor_page(), &scan);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records.back().lsn, 2u);
}

TEST(WalTest, TornTailIsTruncatedAndAppendable) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(wal.Append(MakeInsert(i)).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  const PageId anchor = wal.anchor_page();
  const uint64_t committed = wal.chain_bytes();

  // Flip the last committed byte (inside record 3's frame) — a torn
  // write the CRC must catch.
  const uint32_t payload_per_page = disk.page_size() - 8;
  const PageId head = AnchorHead(&disk, anchor);
  const PageId tail =
      NthChainPage(&disk, head, (committed - 1) / payload_per_page);
  std::vector<char> page(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(tail, page.data()).ok());
  page[8 + (committed - 1) % payload_per_page] ^= 0x40;
  ASSERT_TRUE(disk.WritePage(tail, page.data()).ok());

  ScanResult scan;
  auto reopened = Wal::Open(&disk, anchor, &scan);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(scan.tail_torn);
  EXPECT_GT(scan.discarded_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 2u);  // the committed prefix

  // The tear was physically truncated: appending now extends record 2,
  // and a further reopen sees a clean three-record log.
  ASSERT_TRUE(reopened->Append(MakeInsert(7)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
  ScanResult scan2;
  auto third = Wal::Open(&disk, anchor, &scan2);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(scan2.tail_torn);
  ASSERT_EQ(scan2.records.size(), 3u);
  EXPECT_EQ(scan2.records.back().lsn, 7u);
}

// --- Rotation ---------------------------------------------------------------

TEST(WalTest, RotateReplacesChainWithSnapshot) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(wal.Append(MakeInsert(i)).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());

  std::vector<rtree::Entry> entries(3);
  for (size_t i = 0; i < entries.size(); ++i) {
    const double x = static_cast<double>(i);
    entries[i].mbr = Rect(x, x, x + 1, x + 1);
    entries[i].payload =
        rtree::Entry::PayloadFromRid(Rid{static_cast<PageId>(i), 0});
  }
  ASSERT_TRUE(
      wal.Rotate(BuildSnapshotRecords(entries, rtree::RTreeOptions{}, 11))
          .ok());
  EXPECT_EQ(wal.stats().rotations, 1u);

  ScanResult scan;
  auto reopened = Wal::Open(&disk, wal.anchor_page(), &scan);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(scan.tail_torn);
  // Old op records are gone; the new chain is snapshot + padding only.
  ASSERT_GE(scan.records.size(), 3u);
  EXPECT_EQ(scan.records.front().type, RecordType::kSnapshotBegin);
  bool saw_end = false;
  for (const Record& r : scan.records) {
    EXPECT_NE(r.type, RecordType::kInsert);
    if (r.type == RecordType::kSnapshotEnd) saw_end = true;
  }
  EXPECT_TRUE(saw_end);
}

TEST(WalTest, RotationPageAlignsSnapshot) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  std::vector<rtree::Entry> entries(5);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].mbr = Rect(0, 0, 1, 1);
    entries[i].payload =
        rtree::Entry::PayloadFromRid(Rid{static_cast<PageId>(i), 0});
  }
  ASSERT_TRUE(
      wal.Rotate(BuildSnapshotRecords(entries, rtree::RTreeOptions{}, 1))
          .ok());
  // Padding rounds the snapshot stream up to a whole number of chain
  // pages, so later torn appends can never reach back into it.
  const uint32_t payload_per_page = disk.page_size() - 8;
  EXPECT_EQ(wal.chain_bytes() % payload_per_page, 0u);

  // Appends after rotation land on the pre-linked empty tail page and
  // replay fine.
  ASSERT_TRUE(wal.Append(MakeInsert(2)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  ScanResult scan;
  auto reopened = Wal::Open(&disk, wal.anchor_page(), &scan);
  ASSERT_TRUE(reopened.ok());
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records.back().type, RecordType::kInsert);
  EXPECT_EQ(scan.records.back().lsn, 2u);
}

// --- Anchor -----------------------------------------------------------------

TEST(WalTest, StaleAnchorSlotCorruptionIsTolerated) {
  InMemoryDiskManager disk(512);
  auto created = Wal::Create(&disk);
  ASSERT_TRUE(created.ok());
  Wal wal = std::move(created).value();
  std::vector<rtree::Entry> none;
  // Two rotations so both slots have been written at least once.
  ASSERT_TRUE(
      wal.Rotate(BuildSnapshotRecords(none, rtree::RTreeOptions{}, 1)).ok());
  ASSERT_TRUE(wal.Append(MakeInsert(2)).ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(
      wal.Rotate(BuildSnapshotRecords(none, rtree::RTreeOptions{}, 3)).ok());
  const PageId anchor = wal.anchor_page();
  const PageId live_head = AnchorHead(&disk, anchor);

  // Trash the STALE slot (the one not naming live_head): open must keep
  // working off the surviving slot.
  std::vector<char> page(disk.page_size());
  ASSERT_TRUE(disk.ReadPage(anchor, page.data()).ok());
  for (size_t off : {size_t{0}, size_t{64}}) {
    uint32_t slot_head;
    std::memcpy(&slot_head, page.data() + off + 16, 4);
    if (slot_head != live_head) {
      std::memset(page.data() + off, 0xAB, 24);
    }
  }
  ASSERT_TRUE(disk.WritePage(anchor, page.data()).ok());

  ScanResult scan;
  auto reopened = Wal::Open(&disk, anchor, &scan);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(scan.tail_torn);

  // Trash BOTH slots: now the log is unrecoverable and open must say so.
  std::memset(page.data(), 0xCD, disk.page_size());
  ASSERT_TRUE(disk.WritePage(anchor, page.data()).ok());
  ScanResult scan2;
  auto broken = Wal::Open(&disk, anchor, &scan2);
  EXPECT_FALSE(broken.ok());
  EXPECT_TRUE(broken.status().IsCorruption());
}

}  // namespace
}  // namespace pictdb::wal
