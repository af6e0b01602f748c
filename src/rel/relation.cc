#include "rel/relation.h"

#include "common/logging.h"

namespace pictdb::rel {

using storage::Rid;

StatusOr<Relation> Relation::Create(storage::BufferPool* pool,
                                    std::string name, Schema schema) {
  if (schema.size() == 0) {
    return Status::InvalidArgument("relation needs at least one column");
  }
  PICTDB_ASSIGN_OR_RETURN(storage::HeapFile heap,
                          storage::HeapFile::Create(pool));
  return Relation(pool, std::move(name), std::move(schema), std::move(heap));
}

StatusOr<Rid> Relation::Insert(const Tuple& tuple) {
  PICTDB_RETURN_IF_ERROR(tuple.ConformsTo(schema_));
  const std::string bytes = tuple.Serialize();
  PICTDB_ASSIGN_OR_RETURN(const Rid rid, heap_.Insert(Slice(bytes)));
  PICTDB_RETURN_IF_ERROR(AddToIndexes(tuple, rid));
  return rid;
}

StatusOr<Tuple> Relation::Get(const Rid& rid) const {
  PICTDB_ASSIGN_OR_RETURN(const std::string bytes, heap_.Get(rid));
  return Tuple::Deserialize(bytes);
}

Status Relation::Delete(const Rid& rid) {
  PICTDB_ASSIGN_OR_RETURN(const Tuple tuple, Get(rid));
  PICTDB_RETURN_IF_ERROR(RemoveFromIndexes(tuple, rid));
  return heap_.Delete(rid);
}

StatusOr<Rid> Relation::Update(const Rid& rid, const Tuple& tuple) {
  PICTDB_RETURN_IF_ERROR(tuple.ConformsTo(schema_));
  PICTDB_ASSIGN_OR_RETURN(const Tuple old_tuple, Get(rid));
  PICTDB_RETURN_IF_ERROR(RemoveFromIndexes(old_tuple, rid));
  const std::string bytes = tuple.Serialize();
  PICTDB_ASSIGN_OR_RETURN(const Rid new_rid,
                          heap_.Update(rid, Slice(bytes)));
  PICTDB_RETURN_IF_ERROR(AddToIndexes(tuple, new_rid));
  return new_rid;
}

StatusOr<Rid> Relation::FirstRid() const { return heap_.First(); }

StatusOr<Rid> Relation::NextRid(const Rid& rid) const {
  return heap_.Next(rid);
}

StatusOr<uint64_t> Relation::Count() const { return heap_.Count(); }

StatusOr<btree::Key> Relation::EncodeKey(size_t column_idx,
                                         const Value& value,
                                         const Rid& rid) const {
  switch (schema_.at(column_idx).type) {
    case ValueType::kInt:
      return btree::KeyEncoder::FromInt64(value.as_int(), rid);
    case ValueType::kDouble:
      return btree::KeyEncoder::FromDouble(value.as_double(), rid);
    case ValueType::kString:
      return btree::KeyEncoder::FromString(value.as_string(), rid);
    default:
      return Status::InvalidArgument("column type not B+tree indexable");
  }
}

Status Relation::AddToIndexes(const Tuple& tuple, const Rid& rid) {
  for (auto& [column, index] : btree_indexes_) {
    PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
    if (tuple.at(idx).is_null()) continue;
    PICTDB_ASSIGN_OR_RETURN(const btree::Key key,
                            EncodeKey(idx, tuple.at(idx), rid));
    PICTDB_RETURN_IF_ERROR(index->Insert(key, rid));
  }
  for (auto& [column, index] : spatial_indexes_) {
    PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
    if (tuple.at(idx).is_null()) continue;
    PICTDB_RETURN_IF_ERROR(
        index->Insert(tuple.at(idx).as_geometry().Mbr(), rid));
  }
  return Status::OK();
}

Status Relation::RemoveFromIndexes(const Tuple& tuple, const Rid& rid) {
  for (auto& [column, index] : btree_indexes_) {
    PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
    if (tuple.at(idx).is_null()) continue;
    PICTDB_ASSIGN_OR_RETURN(const btree::Key key,
                            EncodeKey(idx, tuple.at(idx), rid));
    PICTDB_RETURN_IF_ERROR(index->Delete(key));
  }
  for (auto& [column, index] : spatial_indexes_) {
    PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
    if (tuple.at(idx).is_null()) continue;
    PICTDB_RETURN_IF_ERROR(
        index->Delete(tuple.at(idx).as_geometry().Mbr(), rid));
  }
  return Status::OK();
}

Status Relation::CreateBTreeIndex(const std::string& column) {
  if (btree_indexes_.count(column) != 0) {
    return Status::AlreadyExists("index on " + column + " already exists");
  }
  PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
  const ValueType type = schema_.at(idx).type;
  if (type != ValueType::kInt && type != ValueType::kDouble &&
      type != ValueType::kString) {
    return Status::InvalidArgument("column " + column +
                                   " is not alphanumeric");
  }
  PICTDB_ASSIGN_OR_RETURN(btree::BTree tree, btree::BTree::Create(pool_));
  auto index = std::make_shared<btree::BTree>(std::move(tree));
  // Backfill existing tuples.
  PICTDB_ASSIGN_OR_RETURN(Rid rid, FirstRid());
  while (rid.IsValid()) {
    PICTDB_ASSIGN_OR_RETURN(const Tuple tuple, Get(rid));
    if (!tuple.at(idx).is_null()) {
      PICTDB_ASSIGN_OR_RETURN(const btree::Key key,
                              EncodeKey(idx, tuple.at(idx), rid));
      PICTDB_RETURN_IF_ERROR(index->Insert(key, rid));
    }
    PICTDB_ASSIGN_OR_RETURN(rid, NextRid(rid));
  }
  btree_indexes_[column] = std::move(index);
  return Status::OK();
}

bool Relation::HasBTreeIndex(const std::string& column) const {
  return btree_indexes_.count(column) != 0;
}

StatusOr<std::vector<Rid>> Relation::IndexRange(const std::string& column,
                                                const Value& lo,
                                                const Value& hi) const {
  const auto it = btree_indexes_.find(column);
  if (it == btree_indexes_.end()) {
    return Status::NotFound("no B+tree index on " + column);
  }
  PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
  const ValueType type = schema_.at(idx).type;

  auto encode_bound = [&](const Value& v, bool lower) -> StatusOr<btree::Key> {
    if (v.is_null()) {
      // Open end: all-0 or all-1 key.
      btree::Key k;
      k.bytes.fill(lower ? 0x00 : 0xFF);
      return k;
    }
    switch (type) {
      case ValueType::kInt:
        return lower ? btree::KeyEncoder::Int64LowerBound(v.as_int())
                     : btree::KeyEncoder::Int64UpperBound(v.as_int());
      case ValueType::kDouble: {
        PICTDB_ASSIGN_OR_RETURN(const double d, v.AsNumeric());
        return lower ? btree::KeyEncoder::DoubleLowerBound(d)
                     : btree::KeyEncoder::DoubleUpperBound(d);
      }
      case ValueType::kString:
        return lower ? btree::KeyEncoder::StringLowerBound(v.as_string())
                     : btree::KeyEncoder::StringUpperBound(v.as_string());
      default:
        return Status::InvalidArgument("unindexable bound type");
    }
  };

  PICTDB_ASSIGN_OR_RETURN(const btree::Key lo_key,
                          encode_bound(lo, /*lower=*/true));
  PICTDB_ASSIGN_OR_RETURN(const btree::Key hi_key,
                          encode_bound(hi, /*lower=*/false));
  return it->second->Scan(lo_key, hi_key);
}

Status Relation::CreateSpatialIndex(const std::string& column,
                                    const rtree::RTreeOptions& options,
                                    const pack::PackOptions& packer) {
  if (spatial_indexes_.count(column) != 0) {
    return Status::AlreadyExists("spatial index on " + column +
                                 " already exists");
  }
  PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(column));
  if (schema_.at(idx).type != ValueType::kGeometry) {
    return Status::InvalidArgument("column " + column + " is not pictorial");
  }
  PICTDB_ASSIGN_OR_RETURN(rtree::RTree tree,
                          rtree::RTree::Create(pool_, options));
  auto index = std::make_shared<rtree::RTree>(std::move(tree));

  // Gather existing objects; a new pictorial database is packed, per the
  // paper ("databases that are created for the first time must be
  // efficiently organized").
  std::vector<rtree::Entry> items;
  PICTDB_ASSIGN_OR_RETURN(Rid rid, FirstRid());
  while (rid.IsValid()) {
    PICTDB_ASSIGN_OR_RETURN(const Tuple tuple, Get(rid));
    if (!tuple.at(idx).is_null()) {
      rtree::Entry e;
      e.mbr = tuple.at(idx).as_geometry().Mbr();
      e.payload = rtree::Entry::PayloadFromRid(rid);
      items.push_back(e);
    }
    PICTDB_ASSIGN_OR_RETURN(rid, NextRid(rid));
  }
  PICTDB_RETURN_IF_ERROR(pack::Pack(index.get(), std::move(items), packer));
  spatial_indexes_[column] = std::move(index);
  return Status::OK();
}

bool Relation::HasSpatialIndex(const std::string& column) const {
  return spatial_indexes_.count(column) != 0;
}

StatusOr<const rtree::RTree*> Relation::SpatialIndex(
    const std::string& column) const {
  const auto it = spatial_indexes_.find(column);
  if (it == spatial_indexes_.end()) {
    return Status::NotFound("no spatial index on " + column);
  }
  return static_cast<const rtree::RTree*>(it->second.get());
}

std::vector<std::pair<std::string, storage::PageId>>
Relation::BTreeIndexMetas() const {
  std::vector<std::pair<std::string, storage::PageId>> out;
  for (const auto& [column, index] : btree_indexes_) {
    out.emplace_back(column, index->meta_page());
  }
  return out;
}

std::vector<std::pair<std::string, storage::PageId>>
Relation::SpatialIndexMetas() const {
  std::vector<std::pair<std::string, storage::PageId>> out;
  for (const auto& [column, index] : spatial_indexes_) {
    out.emplace_back(column, index->meta_page());
  }
  return out;
}

StatusOr<Relation> Relation::Open(
    storage::BufferPool* pool, std::string name, Schema schema,
    storage::PageId heap_first,
    const std::vector<std::pair<std::string, storage::PageId>>& btree_metas,
    const std::vector<std::pair<std::string, storage::PageId>>&
        spatial_metas) {
  Relation rel(pool, std::move(name), std::move(schema),
               storage::HeapFile::Open(pool, heap_first));
  for (const auto& [column, meta] : btree_metas) {
    if (!rel.schema_.HasColumn(column)) {
      return Status::Corruption("persisted index on unknown column " +
                                column);
    }
    rel.btree_indexes_[column] =
        std::make_shared<btree::BTree>(btree::BTree::Open(pool, meta));
  }
  for (const auto& [column, meta] : spatial_metas) {
    if (!rel.schema_.HasColumn(column)) {
      return Status::Corruption("persisted index on unknown column " +
                                column);
    }
    PICTDB_ASSIGN_OR_RETURN(rtree::RTree tree, rtree::RTree::Open(pool, meta));
    rel.spatial_indexes_[column] =
        std::make_shared<rtree::RTree>(std::move(tree));
  }
  return rel;
}

}  // namespace pictdb::rel
