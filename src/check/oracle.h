#ifndef PICTDB_CHECK_ORACLE_H_
#define PICTDB_CHECK_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "psql/executor.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"

namespace pictdb::check {

/// Brute-force reference engine: a flat copy of the base leaf entries,
/// answered by linear scan. Deliberately has no tree, no pages, no
/// cache — nothing shared with the code under test except the geometry
/// predicates — so agreement between the two is real evidence.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<rtree::Entry> entries)
      : entries_(std::move(entries)) {}

  void Insert(const geom::Rect& mbr, const storage::Rid& rid);
  /// Remove the first entry matching (mbr, rid); false if absent.
  bool Delete(const geom::Rect& mbr, const storage::Rid& rid);

  size_t size() const { return entries_.size(); }
  const std::vector<rtree::Entry>& entries() const { return entries_; }

  /// The paper's query set, by linear scan.
  std::vector<rtree::LeafHit> Intersects(const geom::Rect& window) const;
  std::vector<rtree::LeafHit> ContainedIn(const geom::Rect& window) const;
  std::vector<rtree::LeafHit> AtPoint(const geom::Point& p) const;
  /// k nearest by MBR MINDIST — the same metric SearchNearest minimizes.
  std::vector<rtree::Neighbor> Nearest(const geom::Point& p, size_t k) const;
  /// Intersecting leaf-entry pairs against another oracle (the
  /// juxtaposition count).
  uint64_t CountJoinPairs(const Oracle& other) const;

 private:
  std::vector<rtree::Entry> entries_;
};

/// How one replayed query compared against the oracle.
enum class DiffVerdict {
  kMatch,            // identical result multiset
  kDegradedSubset,   // flagged degraded, and a true subset of the oracle
  kWrongAnswer,      // anything else
};

/// Result-set comparators, exposed for the stress harness. `degraded`
/// is the engine's own flag: an inexact result is only admissible when
/// the engine admitted it was partial.
DiffVerdict CompareHits(const std::vector<rtree::LeafHit>& got,
                        const std::vector<rtree::LeafHit>& want,
                        bool degraded);
/// Neighbors are judged by their distance sequence against the oracle's
/// own ranking for `query` (ties can legally reorder rids). A degraded
/// result must be a sorted subsequence of the full ranking.
DiffVerdict CompareNeighbors(const std::vector<rtree::Neighbor>& got,
                             const Oracle& oracle, const geom::Point& query,
                             size_t k, bool degraded);

struct DiffMismatch {
  size_t query_index = 0;
  std::string description;
};

struct [[nodiscard]] DiffReport {
  uint64_t queries = 0;
  uint64_t matches = 0;
  uint64_t degraded_subsets = 0;
  uint64_t wrong_answers = 0;
  /// Queries that failed outright (Status error) when the run was not
  /// expecting failures.
  uint64_t failures = 0;
  /// First few mismatches, for diagnosis (capped).
  std::vector<DiffMismatch> mismatches;

  bool clean() const { return wrong_answers == 0 && failures == 0; }
  std::string Summary() const;
};

/// Knobs for one replay batch. Weights need not sum to 1; they are
/// normalized. Kinds whose prerequisites are missing (no join binding,
/// no PSQL binding) get weight 0 automatically.
struct DiffConfig {
  uint64_t seed = 1;
  size_t queries = 1000;
  geom::Rect frame;  // default-initialized empty => PaperFrame()

  double w_window = 0.3;
  double w_contained = 0.15;
  double w_point = 0.2;
  double w_knn = 0.2;
  double w_join = 0.05;
  double w_psql = 0.1;

  /// Window half-extent range [min,max] in frame units.
  double min_half_extent = 5.0;
  double max_half_extent = 60.0;
  size_t max_k = 10;

  /// Run queries with degraded_ok (and classify flagged-partial results
  /// as admissible subsets instead of wrong answers).
  bool degraded_ok = false;

  /// Replay through a QueryService, from `service_threads` caller
  /// threads at once, instead of direct single-threaded tree calls.
  bool use_service = false;
  size_t service_threads = 4;
};

/// Replays a seeded query batch against the R-tree — directly or
/// through the concurrent query service — and the Oracle, diffing every
/// result set and classifying each divergence as an admissible degraded
/// subset or a wrong answer.
class DiffRunner {
 public:
  DiffRunner(const rtree::RTree* tree, const Oracle* oracle)
      : tree_(tree), oracle_(oracle) {}

  /// Enable join queries: juxtaposition of the main tree with `other`.
  void BindJoin(const rtree::RTree* other, const Oracle* other_oracle) {
    join_tree_ = other;
    join_oracle_ = other_oracle;
  }

  /// Enable PSQL-where queries: windows are rendered as
  ///   select <attr> from <relation> on <map> at <attr> covered-by {...}
  /// and the returned row rids compared against `psql_oracle`
  /// (an Oracle over the relation's spatial attribute). Window centers
  /// and extents are drawn on an integer grid so the rendered text
  /// round-trips exactly through the PSQL lexer.
  void BindPsql(const psql::Executor* executor, std::string relation,
                std::string map, std::string attr,
                const Oracle* psql_oracle) {
    executor_ = executor;
    psql_relation_ = std::move(relation);
    psql_map_ = std::move(map);
    psql_attr_ = std::move(attr);
    psql_oracle_ = psql_oracle;
  }

  /// PSQL windows are drawn inside this frame (the relation's map frame,
  /// e.g. continental-US lon/lat) rather than `config.frame`.
  void SetPsqlFrame(const geom::Rect& frame) { psql_frame_ = frame; }

  StatusOr<DiffReport> Run(const DiffConfig& config) const;

 private:
  const rtree::RTree* tree_;
  const Oracle* oracle_;
  const rtree::RTree* join_tree_ = nullptr;
  const Oracle* join_oracle_ = nullptr;
  const psql::Executor* executor_ = nullptr;
  std::string psql_relation_, psql_map_, psql_attr_;
  const Oracle* psql_oracle_ = nullptr;
  geom::Rect psql_frame_;
};

}  // namespace pictdb::check

#endif  // PICTDB_CHECK_ORACLE_H_
