#include "pack/external.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "geom/rect.h"
#include "pack/builder.h"

namespace pictdb::pack {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::SpillFile;
using storage::SpillFileManager;
using storage::SpillRunHandle;
using storage::SpillRunReader;
using storage::SpillRunWriter;

static_assert(std::is_trivially_copyable_v<Entry>,
              "spill records memcpy entries");
static_assert(kSpillRecordSize == 8 + 4 * sizeof(double) + 8,
              "spill record = key + 4 MBR coords + payload, no padding");

/// The unit of the in-memory sort buffer; memory_budget_bytes is
/// accounted in these.
struct KeyedEntry {
  uint64_t key;
  Entry entry;
};

void EncodeSpillRecord(uint64_t key, const Entry& e, char* out) {
  std::memcpy(out, &key, sizeof(key));
  std::memcpy(out + sizeof(key), &e, sizeof(e));
}

void DecodeSpillRecord(const char* in, uint64_t* key, Entry* e) {
  std::memcpy(key, in, sizeof(*key));
  std::memcpy(e, in + sizeof(*key), sizeof(*e));
}

/// One run under merge: its reader plus the buffered head record.
struct MergeSource {
  MergeSource(SpillFile* file, const SpillRunHandle& run)
      : reader(file, run, kSpillRecordSize) {}

  Status Advance() {
    char rec[kSpillRecordSize];
    PICTDB_ASSIGN_OR_RETURN(const bool more, reader.Next(rec));
    exhausted = !more;
    if (more) DecodeSpillRecord(rec, &key, &entry);
    return Status::OK();
  }

  SpillRunReader reader;
  uint64_t key = 0;
  Entry entry;
  bool exhausted = false;
};

/// Classic array loser tree over the merge sources. Internal nodes
/// store the loser of the subtree match; the overall winner sits in
/// `winner_`. Leaf s lives at array position k + s, so its parent is
/// (k + s) / 2 and Replay() walks one root path per pop — O(log k)
/// key comparisons per merged record.
///
/// Ordering: smaller key wins; ties go to the lower source index. The
/// run list is in input order (runs are consecutive input chunks, and
/// cascaded merges put their output back at the front), so this
/// tie-break reproduces the stable sort's input-order tie handling.
class LoserTree {
 public:
  explicit LoserTree(std::vector<MergeSource>* sources)
      : sources_(sources),
        k_(sources->size()),
        tree_(std::max<size_t>(k_, 1), -1) {
    PICTDB_CHECK(k_ >= 1);
    // Bottom-up init: compute each internal node's match from the
    // winners of its children; leaves are the sources themselves.
    std::vector<int> winner_at(2 * k_, -1);
    for (size_t i = k_; i < 2 * k_; ++i) {
      winner_at[i] = static_cast<int>(i - k_);
    }
    for (size_t n = k_ - 1; n >= 1; --n) {
      const int a = winner_at[2 * n];
      const int b = winner_at[2 * n + 1];
      if (Beats(a, b)) {
        winner_at[n] = a;
        tree_[n] = b;
      } else {
        winner_at[n] = b;
        tree_[n] = a;
      }
    }
    winner_ = k_ == 1 ? 0 : winner_at[1];
  }

  int winner() const { return winner_; }

  /// After the winner consumed a record (or exhausted), replay its
  /// leaf-to-root path against the stored losers.
  void Replay() {
    int cur = winner_;
    for (size_t node = (static_cast<size_t>(cur) + k_) / 2; node >= 1;
         node /= 2) {
      if (Beats(tree_[node], cur)) std::swap(cur, tree_[node]);
    }
    winner_ = cur;
  }

 private:
  /// Strict "source a outranks source b". Exhausted sources always
  /// lose, so the tournament winner is exhausted only when every source
  /// is — that is the merge's termination test.
  bool Beats(int a, int b) const {
    if (a < 0) return false;
    if (b < 0) return true;
    const MergeSource& sa = (*sources_)[static_cast<size_t>(a)];
    const MergeSource& sb = (*sources_)[static_cast<size_t>(b)];
    if (sa.exhausted) return false;
    if (sb.exhausted) return true;
    return sa.key < sb.key || (sa.key == sb.key && a < b);
  }

  std::vector<MergeSource>* sources_;
  size_t k_;
  std::vector<int> tree_;
  int winner_ = -1;
};

/// k-way merge of `runs`, emitting records in (key, run position)
/// order through `emit(key, entry)`.
template <typename Emit>
Status MergeRuns(SpillFile* file, const std::vector<SpillRunHandle>& runs,
                 uint64_t* pages_read, Emit&& emit) {
  std::vector<MergeSource> sources;
  sources.reserve(runs.size());
  for (const SpillRunHandle& r : runs) sources.emplace_back(file, r);
  Status status = Status::OK();
  for (MergeSource& s : sources) {
    status = s.Advance();
    if (!status.ok()) break;
  }
  if (status.ok()) {
    LoserTree lt(&sources);
    while (true) {
      const int w = lt.winner();
      if (w < 0 || sources[static_cast<size_t>(w)].exhausted) break;
      MergeSource& src = sources[static_cast<size_t>(w)];
      status = emit(src.key, src.entry);
      if (status.ok()) status = src.Advance();
      if (!status.ok()) break;
      lt.Replay();
    }
  }
  for (const MergeSource& s : sources) *pages_read += s.reader.pages_read();
  return status;
}

}  // namespace

Status PackExternal(RTree* tree, EntrySource* source,
                    const PackOptions& options, ExternalPackStats* stats_out,
                    SpillFileManager* spill_manager) {
  if (tree->Size() != 0) {
    return Status::InvalidArgument("bulk load target tree is not empty");
  }
  if (options.strategy == PackStrategy::kNearestNeighbor) {
    return Status::NotSupported(
        "external pack cannot run the nearest-neighbor grouping: it needs "
        "a whole level in memory");
  }
  const SortCriterion criterion = *LevelKey(options);

  constexpr uint64_t kDefaultBudget = 64ull << 20;
  const uint64_t budget = options.memory_budget_bytes != 0
                              ? options.memory_budget_bytes
                              : kDefaultBudget;
  ExternalPackStats stats;
  stats.run_capacity_entries =
      std::max<uint64_t>(1, budget / sizeof(KeyedEntry));
  const size_t run_capacity = static_cast<size_t>(stats.run_capacity_entries);

  // The Hilbert key quantizes against the union of every MBR, which a
  // one-pass stream cannot know up front — learn the frame (and reject
  // invalid entries before any I/O) in a dedicated pass, then rewind.
  geom::Rect frame;
  if (criterion == SortCriterion::kHilbert) {
    Entry e;
    while (true) {
      PICTDB_ASSIGN_OR_RETURN(const bool more, source->Next(&e));
      if (!more) break;
      PICTDB_RETURN_IF_ERROR(ValidatePackEntry(e));
      frame.ExpandToInclude(e.mbr);
    }
    PICTDB_RETURN_IF_ERROR(source->Rewind());
  }

  SpillFileManager local_manager(options.spill_dir);
  SpillFileManager* manager =
      spill_manager != nullptr ? spill_manager : &local_manager;
  std::unique_ptr<SpillFile> spill;
  std::vector<SpillRunHandle> runs;

  // --- Run formation: budget-sized buffers, stable-sorted by key -----
  {
    std::vector<KeyedEntry> buffer;
    buffer.reserve(run_capacity);
    char rec[kSpillRecordSize];
    auto flush_run = [&]() -> Status {
      if (buffer.empty()) return Status::OK();
      std::stable_sort(buffer.begin(), buffer.end(),
                       [](const KeyedEntry& a, const KeyedEntry& b) {
                         return a.key < b.key;
                       });
      if (spill == nullptr) {
        PICTDB_ASSIGN_OR_RETURN(spill, manager->Create());
      }
      SpillRunWriter writer(spill.get(), kSpillRecordSize);
      for (const KeyedEntry& ke : buffer) {
        EncodeSpillRecord(ke.key, ke.entry, rec);
        PICTDB_RETURN_IF_ERROR(writer.Append(rec));
      }
      PICTDB_ASSIGN_OR_RETURN(const SpillRunHandle run, writer.Finish());
      stats.spill_pages_written += writer.pages_written();
      runs.push_back(run);
      buffer.clear();
      return Status::OK();
    };

    Entry e;
    while (true) {
      PICTDB_ASSIGN_OR_RETURN(const bool more, source->Next(&e));
      if (!more) break;
      PICTDB_RETURN_IF_ERROR(ValidatePackEntry(e));
      buffer.push_back(KeyedEntry{SortKey(e, criterion, frame), e});
      ++stats.entries;
      if (buffer.size() == run_capacity) PICTDB_RETURN_IF_ERROR(flush_run());
    }
    PICTDB_RETURN_IF_ERROR(flush_run());
  }  // sort buffer released before the merge stage allocates its pages

  stats.spill_runs = runs.size();
  const uint64_t total = stats.entries;
  if (total == 0) {
    if (stats_out != nullptr) *stats_out = stats;
    return Status::OK();
  }

  // --- Cascaded merges when the run count exceeds the fan-in ---------
  // Always merge the FIRST kSpillMergeMaxFanIn runs and put the result
  // back at the front: run-list position encodes input order, which the
  // loser tree's tie-break depends on for stability.
  while (runs.size() > kSpillMergeMaxFanIn) {
    const std::vector<SpillRunHandle> head(
        runs.begin(), runs.begin() + kSpillMergeMaxFanIn);
    SpillRunWriter writer(spill.get(), kSpillRecordSize);
    char rec[kSpillRecordSize];
    PICTDB_RETURN_IF_ERROR(MergeRuns(
        spill.get(), head, &stats.spill_pages_read,
        [&writer, &rec](uint64_t key, const Entry& entry) -> Status {
          EncodeSpillRecord(key, entry, rec);
          return writer.Append(rec);
        }));
    PICTDB_ASSIGN_OR_RETURN(const SpillRunHandle merged, writer.Finish());
    stats.spill_pages_written += writer.pages_written();
    ++stats.merge_passes;
    std::vector<SpillRunHandle> next;
    next.reserve(runs.size() - kSpillMergeMaxFanIn + 1);
    next.push_back(merged);
    next.insert(next.end(), runs.begin() + kSpillMergeMaxFanIn, runs.end());
    runs = std::move(next);
  }

  // --- Final merge, streamed straight into the level builder ---------
  PICTDB_RETURN_IF_ERROR(BuildTree(
      tree, options, total, [&](const EntrySink& emit) -> Status {
        PICTDB_RETURN_IF_ERROR(MergeRuns(
            spill.get(), runs, &stats.spill_pages_read,
            [&emit](uint64_t /*key*/, const Entry& e) { return emit(e); }));
        ++stats.merge_passes;
        spill.reset();  // unlink the scratch file before the upper levels
        return Status::OK();
      }));
  if (stats_out != nullptr) *stats_out = stats;
  return Status::OK();
}

}  // namespace pictdb::pack
