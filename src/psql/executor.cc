#include "psql/executor.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "psql/parser.h"
#include "geom/distance.h"
#include "geom/wkt.h"
#include "rtree/join.h"

namespace pictdb::psql {

namespace {

using geom::Geometry;
using rel::Relation;
using rel::Tuple;
using rel::Value;
using rel::ValueType;
using storage::Rid;

/// A from-relation bound to its catalog object and (optionally) the loc
/// column + R-tree it is shown with on the query's picture.
struct BoundRelation {
  const Relation* rel = nullptr;
  std::string name;
  std::string loc_column;                     // "" when not on a picture
  const rtree::RTree* index = nullptr;        // may be null
};

/// Row under evaluation: one tuple per bound relation.
struct RowCtx {
  const std::vector<BoundRelation>* rels;
  std::vector<const Tuple*> tuples;
};

/// Resolve a (possibly qualified) column name to (relation idx, column
/// idx) within the bound relations.
StatusOr<std::pair<size_t, size_t>> ResolveColumn(
    const std::vector<BoundRelation>& rels, const std::string& qualifier,
    const std::string& column) {
  if (!qualifier.empty()) {
    for (size_t r = 0; r < rels.size(); ++r) {
      if (rels[r].name != qualifier) continue;
      PICTDB_ASSIGN_OR_RETURN(const size_t c,
                              rels[r].rel->schema().IndexOf(column));
      return std::make_pair(r, c);
    }
    return Status::NotFound("relation " + qualifier +
                            " is not in the from-clause");
  }
  std::optional<std::pair<size_t, size_t>> found;
  for (size_t r = 0; r < rels.size(); ++r) {
    auto c = rels[r].rel->schema().IndexOf(column);
    if (!c.ok()) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column " + column);
    }
    found = std::make_pair(r, *c);
  }
  if (!found.has_value()) {
    return Status::NotFound("no column named " + column);
  }
  return *found;
}

/// PSQL's pictorial functions: simple attributes computed from a
/// geometry (the paper's `area`, plus MBR extremes in the spirit of its
/// `northest` example).
StatusOr<Value> EvalFunction(const std::string& name,
                             const std::vector<Value>& args) {
  auto geometry_arg = [&args, &name]() -> StatusOr<Geometry> {
    if (args.size() != 1 || args[0].type() != ValueType::kGeometry) {
      return Status::InvalidArgument(name + "() expects one geometry");
    }
    return args[0].as_geometry();
  };
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
  if (lower == "area") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Area());
  }
  if (lower == "perimeter") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    if (g.is_region()) return Value(g.region().Perimeter());
    if (g.is_rect()) return Value(2.0 * g.rect().Margin());
    if (g.is_segment()) return Value(g.segment().Length());
    return Value(0.0);
  }
  if (lower == "north" || lower == "northest") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().hi.y);
  }
  if (lower == "south") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().lo.y);
  }
  if (lower == "east") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().hi.x);
  }
  if (lower == "west") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().lo.x);
  }
  if (lower == "centerx") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().Center().x);
  }
  if (lower == "centery") {
    PICTDB_ASSIGN_OR_RETURN(const Geometry g, geometry_arg());
    return Value(g.Mbr().Center().y);
  }

  // Two-geometry forms: the spatial operators as callable predicates
  // ("system defined procedures from within the where-clause", §2.2)
  // plus distance. String arguments are parsed as WKT so constant
  // geometries can be written inline.
  auto geometry_pair = [&args, &name]() -> StatusOr<std::pair<Geometry,
                                                              Geometry>> {
    if (args.size() != 2) {
      return Status::InvalidArgument(name + "() expects two geometries");
    }
    std::pair<Geometry, Geometry> out;
    for (int i = 0; i < 2; ++i) {
      const Value& v = args[i];
      Geometry* slot = i == 0 ? &out.first : &out.second;
      if (v.type() == ValueType::kGeometry) {
        *slot = v.as_geometry();
      } else if (v.type() == ValueType::kString) {
        PICTDB_ASSIGN_OR_RETURN(*slot, geom::ParseWkt(v.as_string()));
      } else {
        return Status::InvalidArgument(name + "() argument " +
                                       std::to_string(i + 1) +
                                       " is not a geometry");
      }
    }
    return out;
  };
  auto boolean = [](bool b) { return Value(static_cast<int64_t>(b ? 1 : 0)); };
  if (lower == "covered-by" || lower == "covered_by") {
    PICTDB_ASSIGN_OR_RETURN(const auto pair, geometry_pair());
    return boolean(geom::CoveredBy(pair.first, pair.second));
  }
  if (lower == "covering" || lower == "covers") {
    PICTDB_ASSIGN_OR_RETURN(const auto pair, geometry_pair());
    return boolean(geom::Covering(pair.first, pair.second));
  }
  if (lower == "overlapping" || lower == "intersecting") {
    PICTDB_ASSIGN_OR_RETURN(const auto pair, geometry_pair());
    return boolean(geom::Overlapping(pair.first, pair.second));
  }
  if (lower == "disjoined" || lower == "disjoint") {
    PICTDB_ASSIGN_OR_RETURN(const auto pair, geometry_pair());
    return boolean(geom::Disjoined(pair.first, pair.second));
  }
  if (lower == "distance") {
    PICTDB_ASSIGN_OR_RETURN(const auto pair, geometry_pair());
    return Value(geom::DistanceBetween(pair.first, pair.second));
  }
  return Status::NotSupported("unknown function " + name);
}

/// Aggregate functions over the qualifying rows. `count` with no
/// argument is count(*); `northest` etc. fold geometry extents, the
/// paper's "aggregate function on a set of highway segments".
bool IsAggregateName(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
  return lower == "count" || lower == "min" || lower == "max" ||
         lower == "sum" || lower == "avg" || lower == "northest" ||
         lower == "southest" || lower == "eastest" || lower == "westest";
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == Expr::Kind::kCall && IsAggregateName(expr.func)) {
    return true;
  }
  for (const auto& arg : expr.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  return false;
}

StatusOr<Value> EvalExpr(const Expr& expr, const RowCtx& ctx);

/// Evaluate one aggregate call over all qualifying rows.
StatusOr<Value> EvalAggregate(const Expr& call,
                              const std::vector<RowCtx>& rows) {
  std::string lower = call.func;
  std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);

  if (lower == "count" && call.args.empty()) {
    return Value(static_cast<int64_t>(rows.size()));
  }
  if (call.args.size() != 1) {
    return Status::InvalidArgument(call.func +
                                   "() aggregate expects one argument");
  }

  int64_t count = 0;
  double sum = 0.0;
  bool have_best = false;
  Value best;
  double extent = 0.0;
  for (const RowCtx& row : rows) {
    PICTDB_ASSIGN_OR_RETURN(const Value v, EvalExpr(*call.args[0], row));
    if (v.is_null()) continue;
    ++count;
    if (lower == "count") continue;
    if (lower == "sum" || lower == "avg") {
      PICTDB_ASSIGN_OR_RETURN(const double d, v.AsNumeric());
      sum += d;
      continue;
    }
    if (lower == "min" || lower == "max") {
      if (!have_best) {
        best = v;
        have_best = true;
      } else {
        PICTDB_ASSIGN_OR_RETURN(const int cmp, v.Compare(best));
        if ((lower == "min" && cmp < 0) || (lower == "max" && cmp > 0)) {
          best = v;
        }
      }
      continue;
    }
    // Geometry extent folds.
    if (v.type() != ValueType::kGeometry) {
      return Status::InvalidArgument(call.func + "() expects geometries");
    }
    const geom::Rect mbr = v.as_geometry().Mbr();
    double candidate = 0.0;
    if (lower == "northest") candidate = mbr.hi.y;
    else if (lower == "southest") candidate = mbr.lo.y;
    else if (lower == "eastest") candidate = mbr.hi.x;
    else if (lower == "westest") candidate = mbr.lo.x;
    if (!have_best) {
      extent = candidate;
      have_best = true;
    } else if (lower == "northest" || lower == "eastest") {
      extent = std::max(extent, candidate);
    } else {
      extent = std::min(extent, candidate);
    }
  }

  if (lower == "count") return Value(count);
  if (lower == "sum") return count > 0 ? Value(sum) : Value();
  if (lower == "avg") {
    return count > 0 ? Value(sum / static_cast<double>(count)) : Value();
  }
  if (lower == "min" || lower == "max") {
    return have_best ? best : Value();
  }
  return have_best ? Value(extent) : Value();
}

StatusOr<Value> EvalExpr(const Expr& expr, const RowCtx& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef: {
      PICTDB_ASSIGN_OR_RETURN(
          const auto loc, ResolveColumn(*ctx.rels, expr.rel, expr.column));
      return ctx.tuples[loc.first]->at(loc.second);
    }
    case Expr::Kind::kCompare: {
      PICTDB_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*expr.args[0], ctx));
      PICTDB_ASSIGN_OR_RETURN(const Value rhs, EvalExpr(*expr.args[1], ctx));
      PICTDB_ASSIGN_OR_RETURN(const int cmp, lhs.Compare(rhs));
      bool result = false;
      switch (expr.cmp) {
        case Expr::CmpOp::kLt:
          result = cmp < 0;
          break;
        case Expr::CmpOp::kLe:
          result = cmp <= 0;
          break;
        case Expr::CmpOp::kGt:
          result = cmp > 0;
          break;
        case Expr::CmpOp::kGe:
          result = cmp >= 0;
          break;
        case Expr::CmpOp::kEq:
          result = cmp == 0;
          break;
        case Expr::CmpOp::kNe:
          result = cmp != 0;
          break;
      }
      return Value(static_cast<int64_t>(result ? 1 : 0));
    }
    case Expr::Kind::kAnd: {
      PICTDB_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*expr.args[0], ctx));
      if (lhs.is_null() || lhs.as_int() == 0) {
        return Value(static_cast<int64_t>(0));
      }
      return EvalExpr(*expr.args[1], ctx);
    }
    case Expr::Kind::kOr: {
      PICTDB_ASSIGN_OR_RETURN(const Value lhs, EvalExpr(*expr.args[0], ctx));
      if (!lhs.is_null() && lhs.as_int() != 0) {
        return Value(static_cast<int64_t>(1));
      }
      return EvalExpr(*expr.args[1], ctx);
    }
    case Expr::Kind::kNot: {
      PICTDB_ASSIGN_OR_RETURN(const Value v, EvalExpr(*expr.args[0], ctx));
      const bool truthy = !v.is_null() && v.as_int() != 0;
      return Value(static_cast<int64_t>(truthy ? 0 : 1));
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      for (const auto& arg : expr.args) {
        PICTDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, ctx));
        args.push_back(std::move(v));
      }
      return EvalFunction(expr.func, args);
    }
  }
  return Status::Internal("unreachable expression kind");
}

StatusOr<bool> EvalPredicate(const Expr& expr, const RowCtx& ctx) {
  PICTDB_ASSIGN_OR_RETURN(const Value v, EvalExpr(expr, ctx));
  if (v.is_null()) return false;
  if (v.type() == ValueType::kInt) return v.as_int() != 0;
  return Status::InvalidArgument("where-clause is not boolean");
}

/// Exact spatial predicate between two geometries.
bool EvalSpatialOp(SpatialOp op, const Geometry& lhs, const Geometry& rhs) {
  switch (op) {
    case SpatialOp::kCoveredBy:
      return geom::CoveredBy(lhs, rhs);
    case SpatialOp::kCovering:
      return geom::Covering(lhs, rhs);
    case SpatialOp::kOverlapping:
      return geom::Overlapping(lhs, rhs);
    case SpatialOp::kDisjoined:
      return geom::Disjoined(lhs, rhs);
  }
  return false;
}

SpatialOp Flip(SpatialOp op) {
  switch (op) {
    case SpatialOp::kCoveredBy:
      return SpatialOp::kCovering;
    case SpatialOp::kCovering:
      return SpatialOp::kCoveredBy;
    default:
      return op;  // overlapping/disjoined are symmetric
  }
}

/// R-tree candidate search for `column-geometry <op> probe-rect`.
/// The MBR-level filter is conservative: candidates are a superset of the
/// exact answer (refinement happens on the actual geometries).
StatusOr<std::vector<rtree::LeafHit>> IndexCandidates(
    const rtree::RTree& index, SpatialOp op, const geom::Rect& probe,
    rtree::SearchStats* stats) {
  switch (op) {
    case SpatialOp::kCoveredBy:
      // Object within probe -> object MBR within probe.
      return index.SearchContainedIn(probe, stats);
    case SpatialOp::kCovering:
      // Object covers probe -> object MBR contains probe.
      return index.SearchContaining(probe, stats);
    case SpatialOp::kOverlapping:
      return index.SearchIntersects(probe, stats);
    case SpatialOp::kDisjoined:
      // Everything whose MBR misses the probe is certainly disjoint, but
      // intersecting MBRs may still be disjoint geometries, so all
      // entries are candidates. The index cannot prune.
      return index.CollectAllEntries(stats);
  }
  return Status::Internal("unreachable spatial op");
}

/// All rids of a relation (sequential scan order).
StatusOr<std::vector<Rid>> AllRids(const Relation& rel) {
  std::vector<Rid> out;
  PICTDB_ASSIGN_OR_RETURN(Rid rid, rel.FirstRid());
  while (rid.IsValid()) {
    out.push_back(rid);
    PICTDB_ASSIGN_OR_RETURN(rid, rel.NextRid(rid));
  }
  return out;
}

/// Collect `col CMP literal` conjuncts usable for B+-tree narrowing.
struct IndexableConjunct {
  std::string column;
  Expr::CmpOp cmp;
  Value literal;
};

void CollectConjuncts(const Expr& expr, const BoundRelation& rel,
                      std::vector<IndexableConjunct>* out) {
  if (expr.kind == Expr::Kind::kAnd) {
    CollectConjuncts(*expr.args[0], rel, out);
    CollectConjuncts(*expr.args[1], rel, out);
    return;
  }
  if (expr.kind != Expr::Kind::kCompare) return;
  const Expr* column_side = nullptr;
  const Expr* literal_side = nullptr;
  Expr::CmpOp cmp = expr.cmp;
  if (expr.args[0]->kind == Expr::Kind::kColumnRef &&
      expr.args[1]->kind == Expr::Kind::kLiteral) {
    column_side = expr.args[0].get();
    literal_side = expr.args[1].get();
  } else if (expr.args[1]->kind == Expr::Kind::kColumnRef &&
             expr.args[0]->kind == Expr::Kind::kLiteral) {
    column_side = expr.args[1].get();
    literal_side = expr.args[0].get();
    // Mirror the comparison: 5 < col  <=>  col > 5.
    switch (expr.cmp) {
      case Expr::CmpOp::kLt:
        cmp = Expr::CmpOp::kGt;
        break;
      case Expr::CmpOp::kLe:
        cmp = Expr::CmpOp::kGe;
        break;
      case Expr::CmpOp::kGt:
        cmp = Expr::CmpOp::kLt;
        break;
      case Expr::CmpOp::kGe:
        cmp = Expr::CmpOp::kLe;
        break;
      default:
        break;
    }
  } else {
    return;
  }
  if (!column_side->rel.empty() && column_side->rel != rel.name) return;
  if (!rel.rel->HasBTreeIndex(column_side->column)) return;
  out->push_back(IndexableConjunct{column_side->column, cmp,
                                   literal_side->literal});
}

}  // namespace

std::string ResultSet::ToString() const {
  // Column widths from headers and cell contents.
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  cells.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> line;
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto emit_row = [&os, &widths](const std::vector<std::string>& line) {
    for (size_t c = 0; c < line.size(); ++c) {
      if (c) os << " | ";
      os << line[c];
      if (c + 1 < line.size()) {
        os << std::string(widths[c] - line[c].size(), ' ');
      }
    }
    os << "\n";
  };
  emit_row(columns);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c ? 3 : 0);
  }
  os << std::string(total, '-') << "\n";
  for (const auto& line : cells) emit_row(line);
  os << "(" << rows.size() << " row" << (rows.size() == 1 ? "" : "s")
     << ")\n";
  return os.str();
}

StatusOr<std::string> Executor::ExplainQuery(std::string_view text) const {
  PICTDB_ASSIGN_OR_RETURN(const std::unique_ptr<SelectStmt> stmt,
                          Parse(text));
  return Explain(*stmt);
}

StatusOr<std::string> Executor::Explain(const SelectStmt& stmt) const {
  std::ostringstream os;

  // Relations and their picture associations.
  struct RelInfo {
    const Relation* rel;
    std::string name;
    bool has_spatial = false;
    std::string loc_column;
  };
  std::vector<RelInfo> rels;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    RelInfo info;
    info.name = stmt.from[i];
    PICTDB_ASSIGN_OR_RETURN(info.rel, catalog_->GetRelation(info.name));
    std::vector<std::string> candidates;
    if (stmt.on.size() == stmt.from.size()) {
      candidates.push_back(stmt.on[i]);
    } else {
      candidates = stmt.on;
    }
    for (const std::string& pic : candidates) {
      auto column = catalog_->AssociationColumn(pic, info.name);
      if (column.ok()) {
        info.loc_column = *column;
        info.has_spatial = info.rel->HasSpatialIndex(*column);
        break;
      }
    }
    rels.push_back(info);
  }

  if (!stmt.at.has_value()) {
    std::vector<std::string> index_columns;
    if (stmt.where != nullptr && rels.size() == 1) {
      // Mirror the executor's conjunct detection.
      BoundRelation bound;
      bound.rel = rels[0].rel;
      bound.name = rels[0].name;
      std::vector<IndexableConjunct> conjuncts;
      CollectConjuncts(*stmt.where, bound, &conjuncts);
      for (const IndexableConjunct& c : conjuncts) {
        if (c.cmp != Expr::CmpOp::kNe) index_columns.push_back(c.column);
      }
    }
    if (!index_columns.empty()) {
      os << "access: B+-tree index range scan on ";
      for (size_t i = 0; i < index_columns.size(); ++i) {
        if (i) os << " intersect ";
        os << rels[0].name << "." << index_columns[i];
      }
      os << " (indirect search)\n";
    } else {
      os << "access: sequential scan of " << rels[0].name << "\n";
    }
  } else {
    const LocExpr* lhs = &stmt.at->lhs;
    const LocExpr* rhs = &stmt.at->rhs;
    SpatialOp op = stmt.at->op;
    if (lhs->kind != LocExpr::Kind::kColumn &&
        rhs->kind == LocExpr::Kind::kColumn) {
      std::swap(lhs, rhs);
      op = Flip(op);
    }
    if (rhs->kind == LocExpr::Kind::kWindow) {
      const bool indexed = !rels.empty() && rels[0].has_spatial;
      os << "access: direct spatial search, " << ToString(op)
         << " window, on " << rels[0].name << "."
         << (rels[0].loc_column.empty() ? lhs->column : rels[0].loc_column)
         << (indexed ? " via packed R-tree" : " via sequential refine");
      if (op == SpatialOp::kDisjoined) {
        os << " (disjoined cannot prune: full leaf sweep)";
      }
      os << "\n";
    } else if (rhs->kind == LocExpr::Kind::kColumn) {
      const bool both_indexed = rels.size() == 2 && rels[0].has_spatial &&
                                rels[1].has_spatial;
      os << "access: juxtaposition of " << stmt.from[0] << " x "
         << stmt.from[1] << " ("
         << (both_indexed && op != SpatialOp::kDisjoined
                 ? "simultaneous R-tree traversal"
                 : "nested-loop pairing")
         << "), refine " << ToString(op) << "\n";
    } else {
      os << "access: nested mapping — inner plan binds the outer "
         << ToString(op) << " search on " << rels[0].name << "\n";
      Executor inner(catalog_);
      PICTDB_ASSIGN_OR_RETURN(const std::string inner_plan,
                              inner.Explain(*rhs->subquery));
      std::istringstream lines(inner_plan);
      std::string line;
      while (std::getline(lines, line)) {
        os << "  inner> " << line << "\n";
      }
    }
  }

  if (stmt.where != nullptr) {
    os << "filter: " << stmt.where->ToString() << "\n";
  }
  os << "project: ";
  if (stmt.star) {
    os << "*";
  } else {
    for (size_t i = 0; i < stmt.targets.size(); ++i) {
      if (i) os << ", ";
      os << stmt.targets[i].display;
    }
  }
  os << "\n";
  return os.str();
}

StatusOr<ResultSet> Executor::Query(std::string_view text) const {
  PICTDB_ASSIGN_OR_RETURN(const std::unique_ptr<SelectStmt> stmt,
                          Parse(text));
  return Execute(*stmt);
}

StatusOr<ResultSet> Executor::Run(std::string_view text) {
  PICTDB_ASSIGN_OR_RETURN(const Statement stmt, ParseStatement(text));
  if (stmt.select != nullptr) return Execute(*stmt.select);
  if (stmt.insert != nullptr) return ExecuteInsert(*stmt.insert);
  if (stmt.update != nullptr) return ExecuteUpdate(*stmt.update);
  return ExecuteDelete(*stmt.del);
}

namespace {

/// Coerce an insert literal to the column's declared type. Ints widen to
/// double columns; strings targeting geometry columns are parsed as WKT.
StatusOr<Value> CoerceLiteral(const Value& literal, ValueType target,
                              const std::string& column) {
  if (literal.is_null() || literal.type() == target) return literal;
  if (target == ValueType::kDouble && literal.type() == ValueType::kInt) {
    return Value(static_cast<double>(literal.as_int()));
  }
  if (target == ValueType::kInt && literal.type() == ValueType::kDouble) {
    const double v = literal.as_double();
    if (v == static_cast<double>(static_cast<int64_t>(v))) {
      return Value(static_cast<int64_t>(v));
    }
    return Status::InvalidArgument("non-integral value for int column " +
                                   column);
  }
  if (target == ValueType::kGeometry &&
      literal.type() == ValueType::kString) {
    PICTDB_ASSIGN_OR_RETURN(geom::Geometry g,
                            geom::ParseWkt(literal.as_string()));
    return Value(std::move(g));
  }
  return Status::InvalidArgument("column " + column + " expects " +
                                 TypeName(target) + ", got " +
                                 TypeName(literal.type()));
}

ResultSet RowsAffected(uint64_t n) {
  ResultSet result;
  result.columns = {"rows_affected"};
  result.rows.push_back({Value(static_cast<int64_t>(n))});
  result.stats.rows_emitted = 1;
  return result;
}

}  // namespace

StatusOr<ResultSet> Executor::ExecuteInsert(const InsertStmt& stmt) {
  PICTDB_ASSIGN_OR_RETURN(Relation * rel,
                          catalog_->GetRelation(stmt.relation));
  const rel::Schema& schema = rel->schema();
  if (stmt.values.size() != schema.size()) {
    return Status::InvalidArgument(
        "insert arity " + std::to_string(stmt.values.size()) +
        " != schema arity " + std::to_string(schema.size()));
  }
  std::vector<Value> values;
  for (size_t i = 0; i < stmt.values.size(); ++i) {
    if (stmt.values[i]->kind != Expr::Kind::kLiteral) {
      return Status::InvalidArgument("insert values must be literals");
    }
    PICTDB_ASSIGN_OR_RETURN(
        Value v, CoerceLiteral(stmt.values[i]->literal, schema.at(i).type,
                               schema.at(i).name));
    values.push_back(std::move(v));
  }
  PICTDB_RETURN_IF_ERROR(rel->Insert(Tuple(std::move(values))).status());
  return RowsAffected(1);
}

namespace {

/// Shared DML qualification: build a star-projection probe over one
/// relation with the same on/at/where semantics as a select mapping.
/// The where tree is *borrowed* (not copied); release it via the guard
/// before the borrowed Expr goes back to its owner.
struct DmlProbe {
  SelectStmt select;

  ~DmlProbe() { select.where.release(); }
};

Status FillDmlProbe(const std::string& relation,
                    const std::vector<std::string>& on,
                    const std::optional<AtClause>& at, Expr* borrowed_where,
                    DmlProbe* probe) {
  probe->select.star = true;
  probe->select.from = {relation};
  probe->select.on = on;
  if (at.has_value()) {
    if (at->rhs.kind == LocExpr::Kind::kSubquery ||
        at->lhs.kind == LocExpr::Kind::kSubquery) {
      return Status::NotSupported("nested mappings in DML qualification");
    }
    AtClause copy;
    copy.op = at->op;
    copy.lhs.kind = at->lhs.kind;
    copy.lhs.window = at->lhs.window;
    copy.lhs.rel = at->lhs.rel;
    copy.lhs.column = at->lhs.column;
    copy.rhs.kind = at->rhs.kind;
    copy.rhs.window = at->rhs.window;
    copy.rhs.rel = at->rhs.rel;
    copy.rhs.column = at->rhs.column;
    probe->select.at = std::move(copy);
  }
  probe->select.where.reset(borrowed_where);
  return Status::OK();
}

}  // namespace

StatusOr<ResultSet> Executor::ExecuteUpdate(const UpdateStmt& stmt) {
  PICTDB_ASSIGN_OR_RETURN(Relation * rel,
                          catalog_->GetRelation(stmt.relation));
  const rel::Schema& schema = rel->schema();

  // Pre-resolve and coerce the assignments.
  std::vector<std::pair<size_t, Value>> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    PICTDB_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(column));
    if (expr->kind != Expr::Kind::kLiteral) {
      return Status::InvalidArgument("update values must be literals");
    }
    PICTDB_ASSIGN_OR_RETURN(
        Value v, CoerceLiteral(expr->literal, schema.at(idx).type, column));
    assignments.emplace_back(idx, std::move(v));
  }

  DmlProbe probe;
  PICTDB_RETURN_IF_ERROR(FillDmlProbe(stmt.relation, stmt.on, stmt.at,
                                      stmt.where.get(), &probe));
  PICTDB_ASSIGN_OR_RETURN(const ResultSet victims, Execute(probe.select));

  uint64_t updated = 0;
  for (const std::vector<storage::Rid>& row : victims.row_rids) {
    PICTDB_CHECK(row.size() == 1);
    PICTDB_ASSIGN_OR_RETURN(Tuple tuple, rel->Get(row[0]));
    for (const auto& [idx, value] : assignments) {
      tuple.at(idx) = value;
    }
    PICTDB_RETURN_IF_ERROR(rel->Update(row[0], tuple).status());
    ++updated;
  }
  return RowsAffected(updated);
}

StatusOr<ResultSet> Executor::ExecuteDelete(const DeleteStmt& stmt) {
  // Qualify via the select machinery — same on/at/where semantics — the
  // probe's row provenance (row_rids) identifies the victims.
  PICTDB_ASSIGN_OR_RETURN(Relation * rel,
                          catalog_->GetRelation(stmt.relation));

  DmlProbe probe;
  PICTDB_RETURN_IF_ERROR(FillDmlProbe(stmt.relation, stmt.on, stmt.at,
                                      stmt.where.get(), &probe));
  PICTDB_ASSIGN_OR_RETURN(const ResultSet victims, Execute(probe.select));

  uint64_t deleted = 0;
  for (const std::vector<storage::Rid>& row : victims.row_rids) {
    PICTDB_CHECK(row.size() == 1);
    PICTDB_RETURN_IF_ERROR(rel->Delete(row[0]));
    ++deleted;
  }
  return RowsAffected(deleted);
}

StatusOr<ResultSet> Executor::Execute(const SelectStmt& stmt) const {
  ResultSet result;

  // --- Bind from-relations and pictures -----------------------------------
  if (stmt.from.empty()) {
    return Status::InvalidArgument("from-clause is empty");
  }
  if (stmt.from.size() > 2) {
    return Status::NotSupported("at most two relations per mapping");
  }
  std::vector<BoundRelation> rels;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    BoundRelation bound;
    bound.name = stmt.from[i];
    PICTDB_ASSIGN_OR_RETURN(bound.rel, std::as_const(*catalog_).GetRelation(
                                           bound.name));
    // Bind to a picture: positional when counts match, otherwise the
    // first listed picture the relation is associated with.
    std::vector<std::string> candidates;
    if (stmt.on.size() == stmt.from.size()) {
      candidates.push_back(stmt.on[i]);
    } else {
      candidates = stmt.on;
    }
    for (const std::string& pic : candidates) {
      auto column = catalog_->AssociationColumn(pic, bound.name);
      if (column.ok()) {
        bound.loc_column = *column;
        auto index = bound.rel->SpatialIndex(*column);
        if (index.ok()) bound.index = *index;
        break;
      }
    }
    if (!stmt.on.empty() && bound.loc_column.empty()) {
      return Status::InvalidArgument("relation " + bound.name +
                                     " is not on any listed picture");
    }
    rels.push_back(bound);
  }

  // --- Resolve the at-clause into candidate row sources --------------------
  // `candidates` holds joined rows as rid vectors (one rid per relation).
  std::vector<std::vector<Rid>> candidate_rows;

  // Resolve a LocExpr column to its bound relation index + column index.
  auto resolve_loc =
      [&rels](const LocExpr& loc) -> StatusOr<std::pair<size_t, size_t>> {
    PICTDB_CHECK(loc.kind == LocExpr::Kind::kColumn);
    // Bare `loc` resolves against loc-column bindings first.
    if (loc.rel.empty()) {
      for (size_t r = 0; r < rels.size(); ++r) {
        if (!rels[r].loc_column.empty() && rels[r].loc_column == loc.column) {
          PICTDB_ASSIGN_OR_RETURN(
              const size_t c, rels[r].rel->schema().IndexOf(loc.column));
          return std::make_pair(r, c);
        }
      }
    }
    return ResolveColumn(rels, loc.rel, loc.column);
  };

  const Relation& first_rel = *rels[0].rel;

  if (!stmt.at.has_value()) {
    if (rels.size() != 1) {
      return Status::NotSupported(
          "two-relation mappings need an at-clause (juxtaposition)");
    }
    // Indirect search: use every indexable conjunct and intersect the
    // rid sets — the paper's "intersection of the indices speeds up the
    // search". Falls back to a sequential scan when nothing is usable.
    std::vector<Rid> rids;
    bool used_index = false;
    if (stmt.where != nullptr) {
      std::vector<IndexableConjunct> conjuncts;
      CollectConjuncts(*stmt.where, rels[0], &conjuncts);
      for (const IndexableConjunct& c : conjuncts) {
        Value lo, hi;
        switch (c.cmp) {
          case Expr::CmpOp::kEq:
            lo = c.literal;
            hi = c.literal;
            break;
          case Expr::CmpOp::kLt:
          case Expr::CmpOp::kLe:
            hi = c.literal;
            break;
          case Expr::CmpOp::kGt:
          case Expr::CmpOp::kGe:
            lo = c.literal;
            break;
          case Expr::CmpOp::kNe:
            continue;  // not indexable
        }
        PICTDB_ASSIGN_OR_RETURN(std::vector<Rid> matched,
                                first_rel.IndexRange(c.column, lo, hi));
        if (!used_index) {
          rids = std::move(matched);
          used_index = true;
        } else {
          // Intersect with the running candidate set.
          std::sort(matched.begin(), matched.end());
          std::vector<Rid> intersection;
          for (const Rid& rid : rids) {
            if (std::binary_search(matched.begin(), matched.end(), rid)) {
              intersection.push_back(rid);
            }
          }
          rids = std::move(intersection);
        }
        result.stats.used_btree_index = true;
        if (rids.empty()) break;  // no candidate survives
      }
    }
    if (!used_index) {
      PICTDB_ASSIGN_OR_RETURN(rids, AllRids(first_rel));
    }
    for (const Rid& rid : rids) candidate_rows.push_back({rid});
  } else {
    AtClause at = AtClause{};
    at.op = stmt.at->op;
    const LocExpr* lhs = &stmt.at->lhs;
    const LocExpr* rhs = &stmt.at->rhs;

    // A bare identifier that is not a relation column may be a named
    // location ("predefined outside the retrieve mapping").
    auto named_location =
        [this](const LocExpr& loc) -> const Geometry* {
      if (loc.kind != LocExpr::Kind::kColumn || !loc.rel.empty()) {
        return nullptr;
      }
      auto g = catalog_->GetLocation(loc.column);
      return g.ok() ? *g : nullptr;
    };
    auto is_relation_column = [&](const LocExpr& loc) {
      return loc.kind == LocExpr::Kind::kColumn &&
             named_location(loc) == nullptr;
    };

    // Normalize: keep a relation column on the left.
    if (!is_relation_column(*lhs) && is_relation_column(*rhs)) {
      std::swap(lhs, rhs);
      at.op = Flip(at.op);
    }
    if (!is_relation_column(*lhs)) {
      return Status::InvalidArgument(
          "at-clause needs a pictorial column on one side");
    }
    PICTDB_ASSIGN_OR_RETURN(const auto lhs_loc, resolve_loc(*lhs));
    const BoundRelation& lhs_rel = rels[lhs_loc.first];
    const size_t lhs_col = lhs_loc.second;
    if (lhs_rel.rel->schema().at(lhs_col).type != ValueType::kGeometry) {
      return Status::InvalidArgument("at-clause column is not pictorial");
    }

    auto geometry_of = [&](const BoundRelation& bound, size_t col,
                           const Rid& rid) -> StatusOr<Geometry> {
      PICTDB_ASSIGN_OR_RETURN(const Tuple t, bound.rel->Get(rid));
      ++result.stats.tuples_fetched;
      if (t.at(col).is_null()) return Geometry();
      return t.at(col).as_geometry();
    };

    // Direct search against one probe geometry; returns matching rids.
    auto direct_search =
        [&](const BoundRelation& bound, size_t col, SpatialOp op,
            const Geometry& probe) -> StatusOr<std::vector<Rid>> {
      std::vector<Rid> out;
      const rtree::RTree* index =
          bound.rel->HasSpatialIndex(bound.rel->schema().at(col).name)
              ? *bound.rel->SpatialIndex(bound.rel->schema().at(col).name)
              : bound.index;
      if (index != nullptr) {
        rtree::SearchStats stats;
        PICTDB_ASSIGN_OR_RETURN(
            const std::vector<rtree::LeafHit> hits,
            IndexCandidates(*index, op, probe.Mbr(), &stats));
        result.stats.used_spatial_index = true;
        result.stats.rtree_nodes_visited += stats.nodes_visited;
        for (const rtree::LeafHit& hit : hits) {
          PICTDB_ASSIGN_OR_RETURN(const Geometry g,
                                  geometry_of(bound, col, hit.rid));
          if (EvalSpatialOp(op, g, probe)) out.push_back(hit.rid);
        }
        return out;
      }
      // No index: sequential refine.
      PICTDB_ASSIGN_OR_RETURN(const std::vector<Rid> rids, AllRids(*bound.rel));
      for (const Rid& rid : rids) {
        PICTDB_ASSIGN_OR_RETURN(const Geometry g,
                                geometry_of(bound, col, rid));
        if (EvalSpatialOp(op, g, probe)) out.push_back(rid);
      }
      return out;
    };

    const Geometry* rhs_named = named_location(*rhs);
    if (rhs->kind == LocExpr::Kind::kWindow || rhs_named != nullptr) {
      // Direct spatial search against a constant area: a window literal
      // or a predefined named location.
      if (rels.size() != 1 || lhs_loc.first != 0) {
        return Status::NotSupported(
            "window at-clause applies to a single-relation mapping");
      }
      const Geometry probe =
          rhs_named != nullptr ? *rhs_named : Geometry(rhs->window);
      PICTDB_ASSIGN_OR_RETURN(
          const std::vector<Rid> rids,
          direct_search(lhs_rel, lhs_col, at.op, probe));
      for (const Rid& rid : rids) candidate_rows.push_back({rid});
    } else if (rhs->kind == LocExpr::Kind::kColumn) {
      // Juxtaposition: simultaneous search of two spatial organizations.
      PICTDB_ASSIGN_OR_RETURN(const auto rhs_loc, resolve_loc(*rhs));
      if (rhs_loc.first == lhs_loc.first) {
        return Status::NotSupported("self-juxtaposition is not supported");
      }
      if (rels.size() != 2) {
        return Status::InvalidArgument(
            "column-to-column at-clause needs two relations");
      }
      const BoundRelation& rhs_rel = rels[rhs_loc.first];
      const size_t rhs_col = rhs_loc.second;

      std::vector<std::pair<Rid, Rid>> pairs;  // (lhs rid, rhs rid)
      if (lhs_rel.index != nullptr && rhs_rel.index != nullptr &&
          at.op != SpatialOp::kDisjoined) {
        rtree::JoinStats join_stats;
        PICTDB_RETURN_IF_ERROR(rtree::SpatialJoin(
            *lhs_rel.index, *rhs_rel.index,
            [&pairs](const rtree::LeafHit& l, const rtree::LeafHit& r) {
              pairs.emplace_back(l.rid, r.rid);
            },
            &join_stats));
        result.stats.used_spatial_join = true;
        result.stats.used_spatial_index = true;
        result.stats.rtree_nodes_visited += join_stats.nodes_visited;
      } else {
        // Disjoined (or missing indexes): all pairs are candidates.
        PICTDB_ASSIGN_OR_RETURN(const std::vector<Rid> lhs_rids,
                                AllRids(*lhs_rel.rel));
        PICTDB_ASSIGN_OR_RETURN(const std::vector<Rid> rhs_rids,
                                AllRids(*rhs_rel.rel));
        for (const Rid& l : lhs_rids) {
          for (const Rid& r : rhs_rids) pairs.emplace_back(l, r);
        }
      }
      for (const auto& [lrid, rrid] : pairs) {
        PICTDB_ASSIGN_OR_RETURN(const Geometry lg,
                                geometry_of(lhs_rel, lhs_col, lrid));
        PICTDB_ASSIGN_OR_RETURN(const Geometry rg,
                                geometry_of(rhs_rel, rhs_col, rrid));
        if (!EvalSpatialOp(at.op, lg, rg)) continue;
        std::vector<Rid> row(2);
        row[lhs_loc.first] = lrid;
        row[rhs_loc.first] = rrid;
        candidate_rows.push_back(std::move(row));
      }
    } else {
      // Nested mapping: the inner result's locations bind the outer
      // search ("the location passed from the interior level directs the
      // search in the exterior one").
      if (rels.size() != 1 || lhs_loc.first != 0) {
        return Status::NotSupported(
            "nested at-clause applies to a single-relation mapping");
      }
      Executor inner_exec(catalog_);
      PICTDB_ASSIGN_OR_RETURN(const ResultSet inner,
                              inner_exec.Execute(*rhs->subquery));
      result.stats.rtree_nodes_visited += inner.stats.rtree_nodes_visited;
      if (inner.pictorial.empty()) {
        // No inner locations: the outer mapping selects nothing.
        candidate_rows.clear();
      }
      std::set<Rid> seen;
      for (const Geometry& probe : inner.pictorial) {
        PICTDB_ASSIGN_OR_RETURN(
            const std::vector<Rid> rids,
            direct_search(lhs_rel, lhs_col, at.op, probe));
        for (const Rid& rid : rids) {
          if (seen.insert(rid).second) candidate_rows.push_back({rid});
        }
      }
    }
  }

  // --- Where filter ----------------------------------------------------------
  std::vector<std::vector<Rid>> qualifying;
  std::vector<std::vector<Tuple>> qualifying_tuples;
  for (const std::vector<Rid>& row : candidate_rows) {
    std::vector<Tuple> tuples;
    tuples.reserve(row.size());
    bool fetch_failed = false;
    for (size_t r = 0; r < row.size(); ++r) {
      auto t = rels[r].rel->Get(row[r]);
      if (!t.ok()) {
        fetch_failed = true;
        break;
      }
      ++result.stats.tuples_fetched;
      tuples.push_back(std::move(t).value());
    }
    if (fetch_failed) continue;

    if (stmt.where != nullptr) {
      RowCtx ctx;
      ctx.rels = &rels;
      for (const Tuple& t : tuples) ctx.tuples.push_back(&t);
      PICTDB_ASSIGN_OR_RETURN(const bool keep,
                              EvalPredicate(*stmt.where, ctx));
      if (!keep) continue;
    }
    qualifying.push_back(row);
    qualifying_tuples.push_back(std::move(tuples));
  }

  // --- Projection ---------------------------------------------------------------
  if (stmt.star) {
    for (size_t r = 0; r < rels.size(); ++r) {
      for (const rel::Column& col : rels[r].rel->schema().columns()) {
        result.columns.push_back(
            rels.size() > 1 ? rels[r].name + "." + col.name : col.name);
      }
    }
  } else {
    for (const TargetItem& item : stmt.targets) {
      result.columns.push_back(item.display);
    }
  }

  // Aggregate mappings (count/min/max/sum/avg/northest...) fold all
  // qualifying rows into one output row.
  bool has_aggregate = false;
  for (const TargetItem& item : stmt.targets) {
    if (ContainsAggregate(*item.expr)) has_aggregate = true;
  }
  if (has_aggregate) {
    for (const TargetItem& item : stmt.targets) {
      if (item.expr->kind != Expr::Kind::kCall ||
          !IsAggregateName(item.expr->func)) {
        return Status::NotSupported(
            "mixing aggregates with per-row targets needs group-by, "
            "which PSQL does not have");
      }
    }
    if (!stmt.order_by.empty()) {
      return Status::InvalidArgument(
          "order by is meaningless for an aggregate mapping");
    }
    std::vector<RowCtx> rows;
    rows.reserve(qualifying_tuples.size());
    for (const std::vector<Tuple>& tuples : qualifying_tuples) {
      RowCtx ctx;
      ctx.rels = &rels;
      for (const Tuple& t : tuples) ctx.tuples.push_back(&t);
      rows.push_back(std::move(ctx));
    }
    std::vector<Value> row;
    for (const TargetItem& item : stmt.targets) {
      PICTDB_ASSIGN_OR_RETURN(Value v, EvalAggregate(*item.expr, rows));
      row.push_back(std::move(v));
    }
    result.rows.push_back(std::move(row));
    result.stats.rows_emitted = 1;
    return result;
  }

  std::vector<std::vector<Value>> order_keys;
  for (size_t qi = 0; qi < qualifying_tuples.size(); ++qi) {
    const std::vector<Tuple>& tuples = qualifying_tuples[qi];
    RowCtx ctx;
    ctx.rels = &rels;
    for (const Tuple& t : tuples) ctx.tuples.push_back(&t);

    if (!stmt.order_by.empty()) {
      std::vector<Value> keys;
      for (const OrderItem& item : stmt.order_by) {
        PICTDB_ASSIGN_OR_RETURN(Value key, EvalExpr(*item.expr, ctx));
        keys.push_back(std::move(key));
      }
      order_keys.push_back(std::move(keys));
    }

    std::vector<Value> row;
    if (stmt.star) {
      for (const Tuple& t : tuples) {
        for (const Value& v : t.values()) row.push_back(v);
      }
    } else {
      for (const TargetItem& item : stmt.targets) {
        PICTDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, ctx));
        row.push_back(std::move(v));
      }
    }
    // Route geometry outputs to the pictorial stream as well.
    for (const Value& v : row) {
      if (v.type() == ValueType::kGeometry) {
        result.pictorial.push_back(v.as_geometry());
      }
    }
    result.rows.push_back(std::move(row));
    result.row_rids.push_back(qualifying[qi]);
  }

  // --- Order by / limit -------------------------------------------------------
  if (!stmt.order_by.empty()) {
    std::vector<size_t> order(result.rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Status sort_error;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                       for (size_t k = 0; k < stmt.order_by.size(); ++k) {
                         auto cmp = order_keys[a][k].Compare(order_keys[b][k]);
                         if (!cmp.ok()) {
                           if (sort_error.ok()) {
                             sort_error = std::move(cmp).status();
                           }
                           return false;
                         }
                         if (*cmp == 0) continue;
                         return stmt.order_by[k].descending ? *cmp > 0
                                                            : *cmp < 0;
                       }
                       return false;
                     });
    PICTDB_RETURN_IF_ERROR(sort_error);
    std::vector<std::vector<Value>> sorted_rows;
    std::vector<std::vector<Rid>> sorted_rids;
    sorted_rows.reserve(order.size());
    sorted_rids.reserve(order.size());
    for (const size_t i : order) {
      sorted_rows.push_back(std::move(result.rows[i]));
      sorted_rids.push_back(std::move(result.row_rids[i]));
    }
    result.rows = std::move(sorted_rows);
    result.row_rids = std::move(sorted_rids);
  }
  if (stmt.limit.has_value() && result.rows.size() > *stmt.limit) {
    result.rows.resize(*stmt.limit);
    result.row_rids.resize(*stmt.limit);
  }
  if (!stmt.order_by.empty() || stmt.limit.has_value()) {
    // Rebuild the pictorial stream to match the final row order/count.
    result.pictorial.clear();
    for (const auto& row : result.rows) {
      for (const Value& v : row) {
        if (v.type() == ValueType::kGeometry) {
          result.pictorial.push_back(v.as_geometry());
        }
      }
    }
  }
  result.stats.rows_emitted = result.rows.size();
  return result;
}

}  // namespace pictdb::psql
