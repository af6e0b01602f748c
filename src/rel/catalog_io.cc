#include "rel/catalog_io.h"

#include <limits>
#include <string_view>

#include "common/bytes.h"
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

/// A read that runs past the end of the image means the image is
/// damaged: Corruption, not the reader's InvalidArgument.
template <class T>
StatusOr<T> Checked(StatusOr<T> read) {
  if (read.ok()) return read;
  return Status::Corruption("catalog image: " + read.status().message());
}

}  // namespace

StatusOr<storage::PageId> SaveCatalog(const Catalog& catalog,
                                      storage::BufferPool* pool) {
  ByteWriter image;
  image.PutU32(kMagic);
  image.PutU32(kVersion);

  const std::vector<std::string> names = catalog.RelationNames();
  image.PutU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    PICTDB_ASSIGN_OR_RETURN(const Relation* rel, catalog.GetRelation(name));
    image.PutString(name);
    image.PutU32(static_cast<uint32_t>(rel->schema().size()));
    for (const Column& col : rel->schema().columns()) {
      image.PutString(col.name);
      image.PutU8(static_cast<uint8_t>(col.type));
    }
    image.PutU32(rel->heap_first_page());
    const auto btrees = rel->BTreeIndexMetas();
    image.PutU32(static_cast<uint32_t>(btrees.size()));
    for (const auto& [column, meta] : btrees) {
      image.PutString(column);
      image.PutU32(meta);
    }
    const auto rtrees = rel->SpatialIndexMetas();
    image.PutU32(static_cast<uint32_t>(rtrees.size()));
    for (const auto& [column, meta] : rtrees) {
      image.PutString(column);
      image.PutU32(meta);
    }
  }

  const auto pictures = catalog.Pictures();
  image.PutU32(static_cast<uint32_t>(pictures.size()));
  for (const Picture* pic : pictures) {
    image.PutString(pic->name);
    image.PutDouble(pic->frame.lo.x);
    image.PutDouble(pic->frame.lo.y);
    image.PutDouble(pic->frame.hi.x);
    image.PutDouble(pic->frame.hi.y);
    image.PutU32(static_cast<uint32_t>(pic->associations.size()));
    for (const auto& [rel, col] : pic->associations) {
      image.PutString(rel);
      image.PutString(col);
    }
  }

  const auto locations = catalog.Locations();
  image.PutU32(static_cast<uint32_t>(locations.size()));
  for (const auto& [name, geometry] : locations) {
    image.PutString(name);
    image.PutString(geom::ToWkt(geometry));
  }

  return storage::WriteBlob(pool, Slice(image.str()));
}

Status LoadCatalog(storage::BufferPool* pool, storage::PageId root,
                   Catalog* out) {
  PICTDB_ASSIGN_OR_RETURN(std::string image, storage::ReadBlob(pool, root));
  ByteReader r(image);
  auto u32 = [&r] { return Checked(r.U32()); };
  // Strings are bounded only by the image that holds them.
  auto str = [&r] {
    return Checked(r.String(std::numeric_limits<uint32_t>::max()));
  };

  PICTDB_ASSIGN_OR_RETURN(const uint32_t magic, u32());
  if (magic != kMagic) return Status::Corruption("bad catalog magic");
  PICTDB_ASSIGN_OR_RETURN(const uint32_t version, u32());
  if (version != kVersion) {
    return Status::NotSupported("unknown catalog version " +
                                std::to_string(version));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t nrel, u32());
  for (uint32_t i = 0; i < nrel; ++i) {
    PICTDB_ASSIGN_OR_RETURN(const std::string name, str());
    PICTDB_ASSIGN_OR_RETURN(const uint32_t ncol, u32());
    std::vector<Column> columns;
    for (uint32_t c = 0; c < ncol; ++c) {
      Column col;
      PICTDB_ASSIGN_OR_RETURN(col.name, str());
      PICTDB_ASSIGN_OR_RETURN(const uint8_t type, Checked(r.U8()));
      if (type > static_cast<uint8_t>(ValueType::kGeometry)) {
        return Status::Corruption("bad column type in catalog image");
      }
      col.type = static_cast<ValueType>(type);
      columns.push_back(std::move(col));
    }
    PICTDB_ASSIGN_OR_RETURN(const uint32_t heap_first, u32());
    std::vector<std::pair<std::string, storage::PageId>> btrees;
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nbtree, u32());
    for (uint32_t b = 0; b < nbtree; ++b) {
      PICTDB_ASSIGN_OR_RETURN(std::string col, str());
      PICTDB_ASSIGN_OR_RETURN(const uint32_t meta, u32());
      btrees.emplace_back(std::move(col), meta);
    }
    std::vector<std::pair<std::string, storage::PageId>> rtrees;
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nrtree, u32());
    for (uint32_t t = 0; t < nrtree; ++t) {
      PICTDB_ASSIGN_OR_RETURN(std::string col, str());
      PICTDB_ASSIGN_OR_RETURN(const uint32_t meta, u32());
      rtrees.emplace_back(std::move(col), meta);
    }
    PICTDB_ASSIGN_OR_RETURN(
        Relation rel, Relation::Open(pool, name, Schema(std::move(columns)),
                                     heap_first, btrees, rtrees));
    PICTDB_RETURN_IF_ERROR(
        out->AttachRelation(std::make_unique<Relation>(std::move(rel))));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t npic, u32());
  for (uint32_t i = 0; i < npic; ++i) {
    Picture pic;
    PICTDB_ASSIGN_OR_RETURN(pic.name, str());
    PICTDB_ASSIGN_OR_RETURN(const double x1, Checked(r.Double()));
    PICTDB_ASSIGN_OR_RETURN(const double y1, Checked(r.Double()));
    PICTDB_ASSIGN_OR_RETURN(const double x2, Checked(r.Double()));
    PICTDB_ASSIGN_OR_RETURN(const double y2, Checked(r.Double()));
    pic.frame = geom::Rect(x1, y1, x2, y2);
    PICTDB_ASSIGN_OR_RETURN(const uint32_t nassoc, u32());
    for (uint32_t a = 0; a < nassoc; ++a) {
      PICTDB_ASSIGN_OR_RETURN(std::string rel, str());
      PICTDB_ASSIGN_OR_RETURN(std::string col, str());
      pic.associations[std::move(rel)] = std::move(col);
    }
    PICTDB_RETURN_IF_ERROR(out->AttachPicture(std::move(pic)));
  }

  PICTDB_ASSIGN_OR_RETURN(const uint32_t nloc, u32());
  for (uint32_t i = 0; i < nloc; ++i) {
    PICTDB_ASSIGN_OR_RETURN(const std::string name, str());
    PICTDB_ASSIGN_OR_RETURN(const std::string wkt, str());
    PICTDB_ASSIGN_OR_RETURN(geom::Geometry g, geom::ParseWkt(wkt));
    PICTDB_RETURN_IF_ERROR(out->DefineLocation(name, std::move(g)));
  }

  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in catalog image");
  }
  return Status::OK();
}

}  // namespace pictdb::rel
