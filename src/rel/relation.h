#ifndef PICTDB_REL_RELATION_H_
#define PICTDB_REL_RELATION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/status_or.h"
#include "pack/pack.h"
#include "rel/tuple.h"
#include "rtree/rtree.h"
#include "storage/heap_file.h"

namespace pictdb::rel {

/// A stored relation: heap file of tuples plus optional per-column
/// indexes — B+-trees for alphanumeric columns ("indexed the usual way")
/// and R-trees for pictorial columns. Indexes are maintained on every
/// insert/delete once created.
class Relation {
 public:
  static StatusOr<Relation> Create(storage::BufferPool* pool,
                                   std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Insert a conforming tuple; updates all indexes.
  StatusOr<storage::Rid> Insert(const Tuple& tuple);

  /// Fetch by rid.
  StatusOr<Tuple> Get(const storage::Rid& rid) const;

  /// Delete by rid; updates all indexes.
  Status Delete(const storage::Rid& rid);

  /// Replace the tuple at `rid` with a conforming new tuple, maintaining
  /// every index. The record may relocate; the (possibly new) rid is
  /// returned (§2.3: modification may reorganize the spatial index).
  StatusOr<storage::Rid> Update(const storage::Rid& rid, const Tuple& tuple);

  /// Sequential scan cursor (invalid Rid = end).
  StatusOr<storage::Rid> FirstRid() const;
  StatusOr<storage::Rid> NextRid(const storage::Rid& rid) const;

  StatusOr<uint64_t> Count() const;

  // --- Alphanumeric indexing ---------------------------------------------

  /// Build a B+-tree over an int/double/string column (covers existing
  /// tuples; maintained afterwards).
  Status CreateBTreeIndex(const std::string& column);

  bool HasBTreeIndex(const std::string& column) const;

  /// Rids of tuples with lo <= column <= hi (either bound may be a null
  /// Value for an open end). String-typed bounds use the index's 16-byte
  /// prefix, so callers re-check exact values (the executor does).
  StatusOr<std::vector<storage::Rid>> IndexRange(const std::string& column,
                                                 const Value& lo,
                                                 const Value& hi) const;

  // --- Pictorial indexing --------------------------------------------------

  /// Build an R-tree over a geometry column by packing the MBRs of all
  /// existing tuples with `packer` (default: the paper's PACK).
  Status CreateSpatialIndex(const std::string& column,
                            const rtree::RTreeOptions& options = {},
                            const pack::PackOptions& packer = {});

  bool HasSpatialIndex(const std::string& column) const;

  /// The R-tree over `column`; NotFound if none was created.
  StatusOr<const rtree::RTree*> SpatialIndex(const std::string& column) const;

  // --- Persistence ----------------------------------------------------------

  /// First heap page (needed to reopen the relation).
  storage::PageId heap_first_page() const { return heap_.first_page(); }

  /// (column, meta page) pairs of the existing indexes.
  std::vector<std::pair<std::string, storage::PageId>> BTreeIndexMetas()
      const;
  std::vector<std::pair<std::string, storage::PageId>> SpatialIndexMetas()
      const;

  /// Reattach a relation persisted earlier: heap + index metas as
  /// captured by the accessors above.
  static StatusOr<Relation> Open(
      storage::BufferPool* pool, std::string name, Schema schema,
      storage::PageId heap_first,
      const std::vector<std::pair<std::string, storage::PageId>>&
          btree_metas,
      const std::vector<std::pair<std::string, storage::PageId>>&
          spatial_metas);

 private:
  Relation(storage::BufferPool* pool, std::string name, Schema schema,
           storage::HeapFile heap)
      : pool_(pool),
        name_(std::move(name)),
        schema_(std::move(schema)),
        heap_(std::move(heap)) {}

  Status AddToIndexes(const Tuple& tuple, const storage::Rid& rid);
  Status RemoveFromIndexes(const Tuple& tuple, const storage::Rid& rid);

  StatusOr<btree::Key> EncodeKey(size_t column_idx, const Value& value,
                                 const storage::Rid& rid) const;

  storage::BufferPool* pool_;
  std::string name_;
  Schema schema_;
  storage::HeapFile heap_;
  // Keyed by column name. shared_ptr keeps Relation movable/copyable as a
  // handle while the index objects stay put.
  std::map<std::string, std::shared_ptr<btree::BTree>> btree_indexes_;
  std::map<std::string, std::shared_ptr<rtree::RTree>> spatial_indexes_;
};

}  // namespace pictdb::rel

#endif  // PICTDB_REL_RELATION_H_
