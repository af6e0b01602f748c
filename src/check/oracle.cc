#include "check/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "common/parallel_for.h"
#include "common/random.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace pictdb::check {

using geom::Point;
using geom::Rect;
using rtree::Entry;
using rtree::LeafHit;
using rtree::Neighbor;

// --- Oracle -----------------------------------------------------------------

void Oracle::Insert(const Rect& mbr, const storage::Rid& rid) {
  Entry e;
  e.mbr = mbr;
  e.payload = Entry::PayloadFromRid(rid);
  entries_.push_back(e);
}

bool Oracle::Delete(const Rect& mbr, const storage::Rid& rid) {
  const uint64_t payload = Entry::PayloadFromRid(rid);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->payload == payload && it->mbr == mbr) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<LeafHit> Oracle::Intersects(const Rect& window) const {
  std::vector<LeafHit> out;
  for (const Entry& e : entries_) {
    if (e.mbr.Intersects(window)) out.push_back(LeafHit{e.mbr, e.AsRid()});
  }
  return out;
}

std::vector<LeafHit> Oracle::ContainedIn(const Rect& window) const {
  std::vector<LeafHit> out;
  for (const Entry& e : entries_) {
    if (window.Contains(e.mbr)) out.push_back(LeafHit{e.mbr, e.AsRid()});
  }
  return out;
}

std::vector<LeafHit> Oracle::AtPoint(const Point& p) const {
  std::vector<LeafHit> out;
  for (const Entry& e : entries_) {
    if (e.mbr.Contains(p)) out.push_back(LeafHit{e.mbr, e.AsRid()});
  }
  return out;
}

std::vector<Neighbor> Oracle::Nearest(const Point& p, size_t k) const {
  std::vector<Neighbor> all;
  all.reserve(entries_.size());
  for (const Entry& e : entries_) {
    all.push_back(
        Neighbor{LeafHit{e.mbr, e.AsRid()}, geom::MinDistance(e.mbr, p)});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });
  all.resize(take);
  return all;
}

uint64_t Oracle::CountJoinPairs(const Oracle& other) const {
  uint64_t pairs = 0;
  for (const Entry& a : entries_) {
    for (const Entry& b : other.entries_) {
      if (a.mbr.Intersects(b.mbr)) ++pairs;
    }
  }
  return pairs;
}

// --- Comparators ------------------------------------------------------------

namespace {

/// Canonical sortable image of one hit: rid plus exact MBR bits.
using HitKey = std::tuple<storage::PageId, uint16_t, double, double, double,
                          double>;

HitKey KeyOf(const LeafHit& h) {
  return HitKey{h.rid.page_id, h.rid.slot, h.mbr.lo.x, h.mbr.lo.y,
                h.mbr.hi.x, h.mbr.hi.y};
}

std::vector<HitKey> Canonical(const std::vector<LeafHit>& hits) {
  std::vector<HitKey> keys;
  keys.reserve(hits.size());
  for (const LeafHit& h : hits) keys.push_back(KeyOf(h));
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool SameDistance(double a, double b) {
  // Both sides compute geom::MinDistance with identical arithmetic, so
  // exact equality is the expected case; the epsilon only forgives
  // re-association inside partial_sort vs the heap traversal.
  return a == b || std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
}

}  // namespace

DiffVerdict CompareHits(const std::vector<LeafHit>& got,
                        const std::vector<LeafHit>& want, bool degraded) {
  const std::vector<HitKey> g = Canonical(got);
  const std::vector<HitKey> w = Canonical(want);
  if (g == w) return DiffVerdict::kMatch;
  if (degraded && std::includes(w.begin(), w.end(), g.begin(), g.end())) {
    return DiffVerdict::kDegradedSubset;
  }
  return DiffVerdict::kWrongAnswer;
}

DiffVerdict CompareNeighbors(const std::vector<Neighbor>& got,
                             const Oracle& oracle, const Point& query,
                             size_t k, bool degraded) {
  const std::vector<Neighbor> want = oracle.Nearest(query, k);
  const bool exact_size = got.size() == want.size();
  bool exact = exact_size;
  if (exact) {
    for (size_t i = 0; i < got.size(); ++i) {
      if (!SameDistance(got[i].distance, want[i].distance)) {
        exact = false;
        break;
      }
    }
  }
  if (exact) return DiffVerdict::kMatch;
  if (!degraded) return DiffVerdict::kWrongAnswer;

  // Degraded: at most k results, sorted, and a subsequence of the full
  // distance ranking (every reported neighbour is a real entry at its
  // true rank distance — just possibly with closer ones missing).
  if (got.size() > k) return DiffVerdict::kWrongAnswer;
  const std::vector<Neighbor> full = oracle.Nearest(query, oracle.size());
  size_t j = 0;
  double prev = -1.0;
  for (const Neighbor& n : got) {
    if (n.distance < prev) return DiffVerdict::kWrongAnswer;
    prev = n.distance;
    while (j < full.size() && !SameDistance(full[j].distance, n.distance)) {
      ++j;
    }
    if (j == full.size()) return DiffVerdict::kWrongAnswer;
    ++j;
  }
  return DiffVerdict::kDegradedSubset;
}

// --- DiffRunner -------------------------------------------------------------

std::string DiffReport::Summary() const {
  std::ostringstream os;
  os << queries << " queries: " << matches << " match, " << degraded_subsets
     << " degraded-subset, " << wrong_answers << " wrong, " << failures
     << " failed";
  return os.str();
}

namespace {

enum class QueryKind { kWindow, kContained, kPoint, kKnn, kJoin, kPsql };

struct QueryDesc {
  QueryKind kind = QueryKind::kWindow;
  Rect window;
  Point point;
  size_t k = 1;
  std::string psql_text;
};

std::vector<storage::Rid> RowRids(const psql::ResultSet& rs) {
  std::vector<storage::Rid> rids;
  rids.reserve(rs.row_rids.size());
  for (const auto& per_row : rs.row_rids) {
    if (!per_row.empty()) rids.push_back(per_row.front());
  }
  return rids;
}

DiffVerdict ComparePsqlRids(std::vector<storage::Rid> got,
                            const std::vector<LeafHit>& want) {
  std::vector<std::pair<storage::PageId, uint16_t>> g, w;
  g.reserve(got.size());
  for (const auto& r : got) g.emplace_back(r.page_id, r.slot);
  w.reserve(want.size());
  for (const auto& h : want) w.emplace_back(h.rid.page_id, h.rid.slot);
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  return g == w ? DiffVerdict::kMatch : DiffVerdict::kWrongAnswer;
}

}  // namespace

StatusOr<DiffReport> DiffRunner::Run(const DiffConfig& config) const {
  DiffReport report;
  Random rng(config.seed);
  const Rect frame =
      config.frame.IsEmpty() ? workload::PaperFrame() : config.frame;
  const Rect psql_frame = psql_frame_.IsEmpty() ? frame : psql_frame_;

  // Normalized cumulative weights; unbound kinds get zero.
  double w_join = join_tree_ != nullptr ? config.w_join : 0.0;
  double w_psql = executor_ != nullptr ? config.w_psql : 0.0;
  const double total = config.w_window + config.w_contained + config.w_point +
                       config.w_knn + w_join + w_psql;
  if (total <= 0.0) {
    return Status::InvalidArgument("diff config enables no query kind");
  }

  auto draw_kind = [&]() {
    double r = rng.NextDouble() * total;
    if ((r -= config.w_window) < 0) return QueryKind::kWindow;
    if ((r -= config.w_contained) < 0) return QueryKind::kContained;
    if ((r -= config.w_point) < 0) return QueryKind::kPoint;
    if ((r -= config.w_knn) < 0) return QueryKind::kKnn;
    if ((r -= w_join) < 0) return QueryKind::kJoin;
    return QueryKind::kPsql;
  };
  auto draw_window = [&](const Rect& in) {
    const double cx = rng.UniformDouble(in.lo.x, in.hi.x);
    const double cy = rng.UniformDouble(in.lo.y, in.hi.y);
    const double dx =
        rng.UniformDouble(config.min_half_extent, config.max_half_extent);
    const double dy =
        rng.UniformDouble(config.min_half_extent, config.max_half_extent);
    return Rect::FromCenterHalfExtent(cx, dx, cy, dy);
  };

  std::vector<QueryDesc> batch;
  batch.reserve(config.queries);
  for (size_t i = 0; i < config.queries; ++i) {
    QueryDesc q;
    q.kind = draw_kind();
    switch (q.kind) {
      case QueryKind::kWindow:
      case QueryKind::kContained:
        q.window = draw_window(frame);
        break;
      case QueryKind::kPoint:
        q.point = Point{rng.UniformDouble(frame.lo.x, frame.hi.x),
                        rng.UniformDouble(frame.lo.y, frame.hi.y)};
        break;
      case QueryKind::kKnn:
        q.point = Point{rng.UniformDouble(frame.lo.x, frame.hi.x),
                        rng.UniformDouble(frame.lo.y, frame.hi.y)};
        q.k = 1 + rng.Uniform(config.max_k);
        break;
      case QueryKind::kJoin:
        break;
      case QueryKind::kPsql: {
        // Integer centers/extents so the rendered text round-trips
        // exactly through the PSQL lexer.
        const long cx = std::lround(
            rng.UniformDouble(psql_frame.lo.x + 1, psql_frame.hi.x - 1));
        const long cy = std::lround(
            rng.UniformDouble(psql_frame.lo.y + 1, psql_frame.hi.y - 1));
        const long dx = 1 + static_cast<long>(rng.Uniform(8));
        const long dy = 1 + static_cast<long>(rng.Uniform(8));
        q.window = Rect::FromCenterHalfExtent(
            static_cast<double>(cx), static_cast<double>(dx),
            static_cast<double>(cy), static_cast<double>(dy));
        char text[256];
        std::snprintf(text, sizeof(text),
                      "select %s from %s on %s at %s covered-by "
                      "{%ld +- %ld, %ld +- %ld}",
                      psql_attr_.c_str(), psql_relation_.c_str(),
                      psql_map_.c_str(), psql_attr_.c_str(), cx, dx, cy, dy);
        q.psql_text = text;
        break;
      }
    }
    batch.push_back(std::move(q));
  }

  auto record_mismatch = [&](size_t index, const std::string& what) {
    if (report.mismatches.size() < 16) {
      report.mismatches.push_back(DiffMismatch{index, what});
    }
  };

  auto classify = [&](size_t index, const QueryDesc& q,
                      const std::vector<LeafHit>& hits,
                      const std::vector<Neighbor>& neighbors,
                      uint64_t join_pairs, const psql::ResultSet* table,
                      bool degraded) {
    DiffVerdict verdict = DiffVerdict::kWrongAnswer;
    switch (q.kind) {
      case QueryKind::kWindow:
        verdict = CompareHits(hits, oracle_->Intersects(q.window), degraded);
        break;
      case QueryKind::kContained:
        verdict = CompareHits(hits, oracle_->ContainedIn(q.window), degraded);
        break;
      case QueryKind::kPoint:
        verdict = CompareHits(hits, oracle_->AtPoint(q.point), degraded);
        break;
      case QueryKind::kKnn:
        verdict = CompareNeighbors(neighbors, *oracle_, q.point, q.k,
                                   degraded);
        break;
      case QueryKind::kJoin: {
        const uint64_t want = join_oracle_ != nullptr
                                  ? oracle_->CountJoinPairs(*join_oracle_)
                                  : 0;
        if (join_pairs == want) {
          verdict = DiffVerdict::kMatch;
        } else if (degraded && join_pairs < want) {
          verdict = DiffVerdict::kDegradedSubset;
        }
        break;
      }
      case QueryKind::kPsql:
        verdict = table != nullptr
                      ? ComparePsqlRids(RowRids(*table),
                                        psql_oracle_->ContainedIn(q.window))
                      : DiffVerdict::kWrongAnswer;
        break;
    }
    switch (verdict) {
      case DiffVerdict::kMatch:
        ++report.matches;
        break;
      case DiffVerdict::kDegradedSubset:
        ++report.degraded_subsets;
        break;
      case DiffVerdict::kWrongAnswer:
        ++report.wrong_answers;
        record_mismatch(index, "result diverges from oracle");
        break;
    }
  };

  report.queries = batch.size();

  if (config.use_service) {
    service::QueryService svc(tree_, executor_);
    service::QueryOptions qopts;
    qopts.degraded_ok = config.degraded_ok;
    auto to_query = [this](const QueryDesc& q) {
      service::Query query;
      switch (q.kind) {
        case QueryKind::kWindow:
          query = service::WindowQuery{q.window, false};
          break;
        case QueryKind::kContained:
          query = service::WindowQuery{q.window, true};
          break;
        case QueryKind::kPoint:
          query = service::PointQuery{q.point};
          break;
        case QueryKind::kKnn:
          query = service::KnnQuery{q.point, q.k};
          break;
        case QueryKind::kJoin:
          query = service::JoinQuery{join_tree_};
          break;
        case QueryKind::kPsql:
          query = service::PsqlQuery{q.psql_text};
          break;
      }
      return query;
    };

    std::vector<StatusOr<service::QueryResult>> outcomes(
        batch.size(), Status::Internal("query not run"));
    ParallelFor(config.service_threads, batch.size(), [&](size_t i) {
      outcomes[i] = svc.RunSync(to_query(batch[i]), qopts);
    });
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const StatusOr<service::QueryResult>& outcome = outcomes[i];
      if (!outcome.ok()) {
        ++report.failures;
        record_mismatch(i, "query failed: " + outcome.status().ToString());
        continue;
      }
      const service::QueryResult& r = outcome.value();
      classify(i, batch[i], r.hits, r.neighbors, r.join_pairs,
               r.table.has_value() ? &*r.table : nullptr, r.degraded);
    }
    return report;
  }

  // Direct single-threaded replay.
  rtree::SearchOptions sopts;
  storage::PageQuarantine quarantine;
  sopts.degraded_ok = config.degraded_ok;
  sopts.quarantine = &quarantine;
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryDesc& q = batch[i];
    rtree::SearchStats stats;
    switch (q.kind) {
      case QueryKind::kWindow: {
        auto hits = tree_->SearchIntersects(q.window, &stats, sopts);
        if (!hits.ok()) {
          ++report.failures;
          record_mismatch(i, hits.status().ToString());
          continue;
        }
        classify(i, q, *hits, {}, 0, nullptr, stats.degraded);
        break;
      }
      case QueryKind::kContained: {
        auto hits = tree_->SearchContainedIn(q.window, &stats, sopts);
        if (!hits.ok()) {
          ++report.failures;
          record_mismatch(i, hits.status().ToString());
          continue;
        }
        classify(i, q, *hits, {}, 0, nullptr, stats.degraded);
        break;
      }
      case QueryKind::kPoint: {
        auto hits = tree_->SearchPoint(q.point, &stats, sopts);
        if (!hits.ok()) {
          ++report.failures;
          record_mismatch(i, hits.status().ToString());
          continue;
        }
        classify(i, q, *hits, {}, 0, nullptr, stats.degraded);
        break;
      }
      case QueryKind::kKnn: {
        auto nn = rtree::SearchNearest(*tree_, q.point, q.k, &stats, sopts);
        if (!nn.ok()) {
          ++report.failures;
          record_mismatch(i, nn.status().ToString());
          continue;
        }
        classify(i, q, {}, *nn, 0, nullptr, stats.degraded);
        break;
      }
      case QueryKind::kJoin: {
        rtree::JoinStats jstats;
        uint64_t pairs = 0;
        const Status st = rtree::SpatialJoin(
            *tree_, *join_tree_,
            [&pairs](const LeafHit&, const LeafHit&) { ++pairs; }, &jstats,
            sopts);
        if (!st.ok()) {
          ++report.failures;
          record_mismatch(i, st.ToString());
          continue;
        }
        classify(i, q, {}, {}, pairs, nullptr, jstats.degraded);
        break;
      }
      case QueryKind::kPsql: {
        auto rs = executor_->Query(q.psql_text);
        if (!rs.ok()) {
          ++report.failures;
          record_mismatch(i, rs.status().ToString());
          continue;
        }
        classify(i, q, {}, {}, 0, &*rs, /*degraded=*/false);
        break;
      }
    }
  }
  return report;
}

}  // namespace pictdb::check
