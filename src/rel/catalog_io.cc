#include "rel/catalog_io.h"

#include <cstring>
#include <string_view>

#include "geom/wkt.h"
#include "storage/blob.h"

namespace pictdb::rel {

namespace {

// Binary catalog image. All integers little-endian fixed width; strings
// are u32-length-prefixed. Layout:
//   u32 magic 'PCAT'; u32 version
//   u32 nrel { str name; u32 ncol {str name; u8 type};
//              u32 heap_first;
//              u32 nbtree {str col; u32 meta};
//              u32 nrtree {str col; u32 meta} }
//   u32 npic { str name; f64 x1,y1,x2,y2; u32 nassoc {str rel; str col} }
//   u32 nloc { str name; str wkt }
constexpr uint32_t kMagic = 0x50434154;  // "PCAT"
constexpr uint32_t kVersion = 1;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutF64(double v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

class Reader {
 public:
  /// Reads `data`, which must outlive the reader.
  explicit Reader(std::string_view data) : data_(data) {}

  StatusOr<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  StatusOr<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  StatusOr<double> F64() {
    if (pos_ + 8 > data_.size()) return Truncated();
    double v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  StatusOr<std::string> Str() {
    PICTDB_ASSIGN_OR_RETURN(const uint32_t len, U32());
    if (pos_ + len > data_.size()) return Truncated();
    std::string s(data_.data() + pos_, len);
    pos_ += len;
    return s;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  static Status Truncated() {
    return Status::Corruption("truncated catalog image");
  }
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<storage::PageId> SaveCatalog(const Catalog& catalog,
                                      storage::BufferPool* pool) {
  std::string image;
  PutU32(kMagic, &image);
  PutU32(kVersion, &image);

  const std::vector<std::string> names = catalog.RelationNames();
  PutU32(static_cast<uint32_t>(names.size()), &image);
  for (const std::string& name : names) {
    PICTDB_ASSIGN_OR_RETURN(const Relation* rel, catalog.GetRelation(name));
    PutStr(name, &image);
    PutU32(static_cast<uint32_t>(rel->schema().size()), &image);
    for (const Column& col : rel->schema().columns()) {
      PutStr(col.name, &image);
      PutU8(static_cast<uint8_t>(col.type), &image);
    }
    PutU32(rel->heap_first_page(), &image);
    const auto btrees = rel->BTreeIndexMetas();
    PutU32(static_cast<uint32_t>(btrees.size()), &image);
    for (const auto& [column, meta] : btrees) {
      PutStr(column, &image);
      PutU32(meta, &image);
    }
    const auto rtrees = rel->SpatialIndexMetas();
    PutU32(static_cast<uint32_t>(rtrees.size()), &image);
    for (const auto& [column, meta] : rtrees) {
      PutStr(column, &image);
      PutU32(meta, &image);
    }
  }

  const auto pictures = catalog.Pictures();
  PutU32(static_cast<uint32_t>(pictures.size()), &image);
  for (const Picture* pic : pictures) {
    PutStr(pic->name, &image);
    PutF64(pic->frame.lo.x, &image);
    PutF64(pic->frame.lo.y, &image);
    PutF64(pic->frame.hi.x, &image);
    PutF64(pic->frame.hi.y, &image);
    PutU32(static_cast<uint32_t>(pic->associations.size()), &image);
    for (const auto& [rel, col] : pic->associations) {
      PutStr(rel, &image);
      PutStr(col, &image);
    }
  }

  const auto locations = catalog.Locations();
  PutU32(static_cast<uint32_t>(locations.size()), &image);
  for (const auto& [name, geometry] : locations) {
    PutStr(name, &image);
    PutStr(geom::ToWkt(geometry), &image);
  }

  return storage::WriteBlob(pool, Slice(image));
}

Status LoadCatalog(storage::BufferPool* pool, storage::PageId root,
                   Catalog* out) {
  PICTDB_ASSIGN_OR_RETURN(std::string image, storage::ReadBlob(pool, root));
  Reader r(image);

  PICTDB_ASSIGN_OR_RETURN(const uint32_t magic, r.U32());
  if (magic != kMagic) return Status::Corruption("bad catalog magic");
  PICTDB_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
  if (version != kVersion) {
    return Status::NotSupported("unknown catalog version " +
                                std::to_string(version));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t nrel, r.U32());
  for (uint32_t i = 0; i < nrel; ++i) {
    PICTDB_ASSIGN_OR_RETURN(const std::string name, r.Str());
    PICTDB_ASSIGN_OR_RETURN(const uint32_t ncol, r.U32());
    std::vector<Column> columns;
    for (uint32_t c = 0; c < ncol; ++c) {
      Column col;
      PICTDB_ASSIGN_OR_RETURN(col.name, r.Str());
      PICTDB_ASSIGN_OR_RETURN(const uint8_t type, r.U8());
      if (type > static_cast<uint8_t>(ValueType::kGeometry)) {
        return Status::Corruption("bad column type in catalog image");
      }
      col.type = static_cast<ValueType>(type);
      columns.push_back(std::move(col));
    }
    PICTDB_ASSIGN_OR_RETURN(const uint32_t heap_first, r.U32());
    std::vector<std::pair<std::string, storage::PageId>> btrees;
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nbtree, r.U32());
    for (uint32_t b = 0; b < nbtree; ++b) {
      PICTDB_ASSIGN_OR_RETURN(std::string col, r.Str());
      PICTDB_ASSIGN_OR_RETURN(const uint32_t meta, r.U32());
      btrees.emplace_back(std::move(col), meta);
    }
    std::vector<std::pair<std::string, storage::PageId>> rtrees;
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nrtree, r.U32());
    for (uint32_t t = 0; t < nrtree; ++t) {
      PICTDB_ASSIGN_OR_RETURN(std::string col, r.Str());
      PICTDB_ASSIGN_OR_RETURN(const uint32_t meta, r.U32());
      rtrees.emplace_back(std::move(col), meta);
    }
    PICTDB_ASSIGN_OR_RETURN(
        Relation rel, Relation::Open(pool, name, Schema(std::move(columns)),
                                     heap_first, btrees, rtrees));
    PICTDB_RETURN_IF_ERROR(
        out->AttachRelation(std::make_unique<Relation>(std::move(rel))));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t npic, r.U32());
  for (uint32_t i = 0; i < npic; ++i) {
    Picture pic;
    PICTDB_ASSIGN_OR_RETURN(pic.name, r.Str());
    PICTDB_ASSIGN_OR_RETURN(const double x1, r.F64());
    PICTDB_ASSIGN_OR_RETURN(const double y1, r.F64());
    PICTDB_ASSIGN_OR_RETURN(const double x2, r.F64());
    PICTDB_ASSIGN_OR_RETURN(const double y2, r.F64());
    pic.frame = geom::Rect(x1, y1, x2, y2);
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nassoc, r.U32());
    for (uint32_t a = 0; a < nassoc; ++a) {
      PICTDB_ASSIGN_OR_RETURN(std::string rel, r.Str());
      PICTDB_ASSIGN_OR_RETURN(std::string col, r.Str());
      pic.associations[std::move(rel)] = std::move(col);
    }
    PICTDB_RETURN_IF_ERROR(out->AttachPicture(std::move(pic)));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t nloc, r.U32());
  for (uint32_t i = 0; i < nloc; ++i) {
    PICTDB_ASSIGN_OR_RETURN(const std::string name, r.Str());
    PICTDB_ASSIGN_OR_RETURN(const std::string wkt, r.Str());
    PICTDB_ASSIGN_OR_RETURN(geom::Geometry g, geom::ParseWkt(wkt));
    PICTDB_RETURN_IF_ERROR(out->DefineLocation(name, std::move(g)));
  }

  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in catalog image");
  }
  return Status::OK();
}

}  // namespace pictdb::rel
