#ifndef PICTDB_PACK_EXTERNAL_H_
#define PICTDB_PACK_EXTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/spill_file.h"

namespace pictdb::pack {

/// Streaming supplier of leaf entries for the external loader: the whole
/// point of the out-of-core path is that the caller never has to hold
/// the full entry list, so input arrives as a pull stream that can be
/// rewound (the Hilbert criterion needs one extra pass to learn the
/// quantization frame before keys can be computed).
class EntrySource {
 public:
  virtual ~EntrySource() = default;

  /// Copy the next entry into `out`; returns false at end of stream.
  virtual StatusOr<bool> Next(rtree::Entry* out) = 0;

  /// Restart the stream from the beginning, yielding the same entries
  /// in the same order.
  virtual Status Rewind() = 0;
};

/// Adapter over an in-memory entry vector (not owned).
class VectorEntrySource final : public EntrySource {
 public:
  explicit VectorEntrySource(const std::vector<rtree::Entry>* entries)
      : entries_(entries) {}

  StatusOr<bool> Next(rtree::Entry* out) override {
    if (index_ == entries_->size()) return false;
    *out = (*entries_)[index_++];
    return true;
  }

  Status Rewind() override {
    index_ = 0;
    return Status::OK();
  }

 private:
  const std::vector<rtree::Entry>* entries_;
  size_t index_ = 0;
};

/// How the external pack spent its I/O; reported by bench/build_micro
/// and asserted by tests (e.g. "a 64 MiB budget over 5M entries really
/// did spill multiple runs").
struct ExternalPackStats {
  uint64_t entries = 0;
  uint64_t spill_runs = 0;     // initial sorted runs formed
  uint64_t merge_passes = 0;   // cascade merges + the final merge
  uint64_t spill_pages_written = 0;
  uint64_t spill_pages_read = 0;
  uint64_t run_capacity_entries = 0;  // entries per in-memory sort buffer
};

/// Fan-in of one merge pass. More runs than this triggers cascaded
/// merges (earliest runs first, so the stable tie-break by run position
/// survives the cascade).
inline constexpr size_t kSpillMergeMaxFanIn = 64;

/// Bytes of one spill record: the 64-bit sort key followed by the raw
/// entry (4 MBR doubles + payload). Keys are precomputed at run
/// formation, so merges never re-derive them.
inline constexpr size_t kSpillRecordSize = 8 + sizeof(rtree::Entry);

/// Out-of-core bulk load: sort `source` by the strategy's level key
/// (src/pack/builder.h) in buffers of at most
/// `options.memory_budget_bytes` (0 → 64 MiB), spill each buffer as a
/// CRC-framed sorted run (even a single one), k-way merge the runs with
/// a loser tree, and stream the merged order straight into the level
/// builder's node cutter; upper levels are built from the B-times-smaller
/// parent stream in memory. The sort buffer is released before the
/// merge. kSortChunk and kStr are supported (STR buffers one slab of
/// S·B entries while its leaves are cut); kNearestNeighbor needs a whole
/// level in memory and returns NotSupported.
///
/// The result is byte-identical to the in-memory `Pack(tree, items,
/// options)` of the same entry stream: runs are consecutive input
/// chunks, each stable-sorted by key, and the merge breaks key ties by
/// run position, which reproduces the global stable sort exactly.
///
/// `spill_manager` overrides where scratch runs live (tests inject a
/// fault-wrapped manager); nullptr uses `options.spill_dir`. On any
/// failure the tree is left empty (the root is only set after the last
/// node page is written).
Status PackExternal(rtree::RTree* tree, EntrySource* source,
                    const PackOptions& options,
                    ExternalPackStats* stats = nullptr,
                    storage::SpillFileManager* spill_manager = nullptr);

}  // namespace pictdb::pack

#endif  // PICTDB_PACK_EXTERNAL_H_
