#ifndef PICTDB_REL_CATALOG_H_
#define PICTDB_REL_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "rel/relation.h"

namespace pictdb::rel {

/// A picture in the PSQL sense: a named geographic frame that one or more
/// pictorial relations are associated with via a geometry column. A
/// relation may be associated with several pictures ("a pictorial
/// relation could be associated with more than one picture").
struct Picture {
  std::string name;
  geom::Rect frame;
  // relation name -> geometry column indexed on this picture.
  std::map<std::string, std::string> associations;
};

/// Name space for relations and pictures; owns both. The PSQL executor
/// resolves every from/on clause through a Catalog.
class Catalog {
 public:
  explicit Catalog(storage::BufferPool* pool) : pool_(pool) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Define a relation.
  Status CreateRelation(const std::string& name, Schema schema);

  StatusOr<Relation*> GetRelation(const std::string& name);
  StatusOr<const Relation*> GetRelation(const std::string& name) const;

  std::vector<std::string> RelationNames() const;

  /// Define a picture with its world frame.
  Status CreatePicture(const std::string& name, const geom::Rect& frame);

  StatusOr<const Picture*> GetPicture(const std::string& name) const;

  /// Associate `relation.column` with the picture, building the packed
  /// spatial index over the column if one does not exist yet.
  Status Associate(const std::string& picture, const std::string& relation,
                   const std::string& column,
                   const rtree::RTreeOptions& options = {},
                   const pack::PackOptions& packer = {});

  /// Column of `relation` shown on `picture`; NotFound when the relation
  /// is not associated with it.
  StatusOr<std::string> AssociationColumn(const std::string& picture,
                                          const std::string& relation) const;

  /// Named locations: the paper's "location variable may just be a name
  /// of a location predefined outside the retrieve mapping". PSQL
  /// at-clauses may reference these by bare name (e.g. `eastern-us`).
  Status DefineLocation(const std::string& name, geom::Geometry location);
  StatusOr<const geom::Geometry*> GetLocation(const std::string& name) const;

  // --- Persistence hooks (used by catalog_io) -------------------------------

  std::vector<const Picture*> Pictures() const;
  std::vector<std::pair<std::string, geom::Geometry>> Locations() const;

  /// Attach an already-opened relation / picture (reload path).
  Status AttachRelation(std::unique_ptr<Relation> relation);
  Status AttachPicture(Picture picture);

  storage::BufferPool* pool() const { return pool_; }

 private:
  storage::BufferPool* pool_;
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::map<std::string, Picture> pictures_;
  std::map<std::string, geom::Geometry> locations_;
};

}  // namespace pictdb::rel

#endif  // PICTDB_REL_CATALOG_H_
