#ifndef PICTDB_CHECK_STRESS_H_
#define PICTDB_CHECK_STRESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/fault_injection.h"

namespace pictdb::check {

/// One operation of a stress trace. Traces are plain data: generated
/// from a seed, serializable to text, replayable, and shrinkable.
enum class OpKind : uint8_t {
  kInsert,        // insert `rect` with the next sequential rid
  kDelete,        // delete the (a mod live-count)-th live entry
  kUpdate,        // move the (a mod live-count)-th live entry to `rect`
  kWindow,        // SearchIntersects(rect) diffed against the oracle
  kContained,     // SearchContainedIn(rect) diffed against the oracle
  kPoint,         // SearchPoint(point) diffed against the oracle
  kKnn,           // SearchNearest(point, a) diffed against the oracle
  kSearchBatch,   // SearchBatch over 1+(a%6) windows derived from
                  // `rect`, each diffed against the oracle AND against
                  // the single-window search (bit-identical hit order)
  kRepack,        // full re-PACK of the tree (skipped in durable mode)
  kRepackRegion,  // pack::RepackRegion(rect) (skipped in durable mode)
  kCheckpoint,    // WAL rotation onto a fresh snapshot (durable only)
  kCrash,         // durable only: kill the writer (power loss), wipe all
                  // unsynced writes, recover, diff full state vs oracle
  kFaultOn,       // arm the config's FaultPlan on the injected disk
  kFaultOff,      // disarm all injected faults
  kValidate,      // run TreeValidator now (in addition to the cadence)
  kCorruptMbr,    // flip mantissa bit (a mod 52) of an inner-node entry
                  // MBR — the seeded corruption the validator must catch
};

struct Op {
  OpKind kind = OpKind::kWindow;
  geom::Rect rect;
  geom::Point point;
  uint32_t a = 0;  // k for kKnn, selector for kDelete/kCorruptMbr
};

/// Mix weights and environment for generated traces. Everything is
/// seeded; two runs of the same config are byte-identical.
struct StressConfig {
  uint64_t seed = 1;
  size_t ops = 1000;
  geom::Rect frame;  // empty => workload::PaperFrame()

  /// Entries PACK-built into the tree (and oracle) before op 0 runs.
  size_t initial_entries = 512;

  // Op mix weights (normalized; kCorruptMbr is never generated — it is
  // appended by tests that want a failing trace). The new kinds default
  // to weight 0 so existing seeds generate byte-identical traces.
  double w_insert = 0.15;
  double w_delete = 0.1;
  double w_update = 0.0;
  double w_window = 0.2;
  double w_contained = 0.1;
  double w_point = 0.15;
  double w_knn = 0.15;
  double w_search_batch = 0.0;  // default 0: existing seeds stay stable
  double w_repack = 0.01;
  double w_repack_region = 0.04;
  double w_checkpoint = 0.0;  // meaningful only when `durable`
  double w_crash = 0.0;       // meaningful only when `durable`
  double w_fault_flip = 0.1;  // alternates kFaultOn / kFaultOff

  double min_half_extent = 5.0;
  double max_half_extent = 50.0;
  size_t max_k = 8;

  /// Rates applied while a kFaultOn episode is active (seeded from
  /// `seed`, so the fault sequence replays exactly).
  storage::FaultPlan fault_plan;

  /// Run query ops through QueryService::RunSync instead of direct
  /// calls. Everything runs on the one driving thread, so at most one
  /// query is in flight and the service is idle whenever a writer runs.
  bool use_service = false;

  /// Route all mutations through a wal::DurableRTree (WAL append +
  /// fsync per commit) layered on a volatile write cache, enabling
  /// kCrash ops: a crash wipes everything not fsynced, reopens, and
  /// requires the recovered state to equal the oracle exactly — every
  /// acked mutation must survive. kRepack / kRepackRegion / kCorruptMbr
  /// are skipped in this mode (they would bypass the log). With
  /// `use_service` set, mutations go through the service write path
  /// (ExecuteWrite) and queries take epoch guards.
  bool durable = false;
  /// Checkpoint cadence for the durable tree (ops between rotations).
  size_t checkpoint_every = 4096;

  /// TreeValidator cadence: after every `validate_every` ops (0 = only
  /// at the end of the trace; the end-of-trace validation always runs).
  size_t validate_every = 64;

  // Environment.
  uint32_t page_size = 512;
  size_t pool_frames = 4096;
  size_t tree_max_entries = 0;  // 0 = derive from page size
};

/// What a trace execution observed. `failed` flips on the first
/// invariant violation or oracle divergence; the trace index and a
/// human message identify it for the shrinker.
struct [[nodiscard]] StressOutcome {
  bool failed = false;
  size_t failing_op = 0;
  std::string message;

  uint64_t queries = 0;
  uint64_t mutations = 0;
  uint64_t wrong_answers = 0;
  uint64_t degraded_subsets = 0;
  uint64_t validations = 0;
  uint64_t crashes = 0;  // simulated power losses survived (durable mode)

  std::string Summary() const;
};

/// Deterministic workload program from a seed.
std::vector<Op> GenerateTrace(const StressConfig& config);

/// Replayable text form, one op per line (`insert 1 2 3 4`,
/// `knn 10 20 5`, `fault-on`, ...). Round-trips through ParseTrace.
std::string TraceToText(const std::vector<Op>& trace);
StatusOr<std::vector<Op>> ParseTrace(std::string_view text);

/// Execute `trace` against a fresh seeded environment (tree + oracle +
/// fault-injected disk), checking queries against the oracle and
/// running TreeValidator on the configured cadence. Execution stops at
/// the first failure.
StressOutcome RunTrace(const std::vector<Op>& trace,
                       const StressConfig& config);

/// Greedy delta-debugging shrinker: repeatedly drop chunks (halving
/// chunk size down to single ops) while `still_fails` holds on the
/// candidate, returning a (locally) minimal failing trace.
std::vector<Op> ShrinkTrace(
    std::vector<Op> trace,
    const std::function<bool(const std::vector<Op>&)>& still_fails);

/// Convenience predicate: re-run under `config` and report failure.
inline std::function<bool(const std::vector<Op>&)> FailsUnder(
    const StressConfig& config) {
  return [config](const std::vector<Op>& candidate) {
    return RunTrace(candidate, config).failed;
  };
}

}  // namespace pictdb::check

#endif  // PICTDB_CHECK_STRESS_H_
