#include "rel/catalog.h"

namespace pictdb::rel {

Status Catalog::CreateRelation(const std::string& name, Schema schema) {
  if (relations_.count(name) != 0) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  PICTDB_ASSIGN_OR_RETURN(Relation rel,
                          Relation::Create(pool_, name, std::move(schema)));
  relations_[name] = std::make_unique<Relation>(std::move(rel));
  return Status::OK();
}

StatusOr<Relation*> Catalog::GetRelation(const std::string& name) {
  const auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + name);
  }
  return it->second.get();
}

StatusOr<const Relation*> Catalog::GetRelation(
    const std::string& name) const {
  const auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named " + name);
  }
  return static_cast<const Relation*>(it->second.get());
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Status Catalog::CreatePicture(const std::string& name,
                              const geom::Rect& frame) {
  if (pictures_.count(name) != 0) {
    return Status::AlreadyExists("picture " + name + " already exists");
  }
  if (frame.IsEmpty()) {
    return Status::InvalidArgument("picture frame must be non-empty");
  }
  pictures_[name] = Picture{name, frame, {}};
  return Status::OK();
}

StatusOr<const Picture*> Catalog::GetPicture(const std::string& name) const {
  const auto it = pictures_.find(name);
  if (it == pictures_.end()) {
    return Status::NotFound("no picture named " + name);
  }
  return &it->second;
}

Status Catalog::Associate(const std::string& picture,
                          const std::string& relation,
                          const std::string& column,
                          const rtree::RTreeOptions& options,
                          const pack::PackOptions& packer) {
  const auto pit = pictures_.find(picture);
  if (pit == pictures_.end()) {
    return Status::NotFound("no picture named " + picture);
  }
  PICTDB_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation));
  if (!rel->HasSpatialIndex(column)) {
    PICTDB_RETURN_IF_ERROR(rel->CreateSpatialIndex(column, options, packer));
  }
  pit->second.associations[relation] = column;
  return Status::OK();
}

std::vector<const Picture*> Catalog::Pictures() const {
  std::vector<const Picture*> out;
  for (const auto& [name, picture] : pictures_) out.push_back(&picture);
  return out;
}

std::vector<std::pair<std::string, geom::Geometry>> Catalog::Locations()
    const {
  std::vector<std::pair<std::string, geom::Geometry>> out;
  for (const auto& [name, location] : locations_) {
    out.emplace_back(name, location);
  }
  return out;
}

Status Catalog::AttachRelation(std::unique_ptr<Relation> relation) {
  const std::string name = relation->name();
  if (relations_.count(name) != 0) {
    return Status::AlreadyExists("relation " + name + " already exists");
  }
  relations_[name] = std::move(relation);
  return Status::OK();
}

Status Catalog::AttachPicture(Picture picture) {
  const std::string name = picture.name;
  if (pictures_.count(name) != 0) {
    return Status::AlreadyExists("picture " + name + " already exists");
  }
  pictures_[name] = std::move(picture);
  return Status::OK();
}

Status Catalog::DefineLocation(const std::string& name,
                               geom::Geometry location) {
  locations_[name] = std::move(location);
  return Status::OK();
}

StatusOr<const geom::Geometry*> Catalog::GetLocation(
    const std::string& name) const {
  const auto it = locations_.find(name);
  if (it == locations_.end()) {
    return Status::NotFound("no location named " + name);
  }
  return &it->second;
}

StatusOr<std::string> Catalog::AssociationColumn(
    const std::string& picture, const std::string& relation) const {
  PICTDB_ASSIGN_OR_RETURN(const Picture* pic, GetPicture(picture));
  const auto it = pic->associations.find(relation);
  if (it == pic->associations.end()) {
    return Status::NotFound("relation " + relation + " is not on picture " +
                            picture);
  }
  return it->second;
}

}  // namespace pictdb::rel
