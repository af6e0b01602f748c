#ifndef PICTDB_BENCH_E2E_WORKLOAD_H_
#define PICTDB_BENCH_E2E_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status_or.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "grid_oracle.h"
#include "net/protocol.h"
#include "pack/external.h"

namespace pictdb::bench {

/// Read request kinds, in the order latency samples are kept.
enum ReadKind : size_t { kWindow = 0, kPoint, kKnn, kBatch, kJoin };
inline constexpr size_t kReadKinds = 5;
inline constexpr const char* kReadKindNames[kReadKinds] = {
    "window", "point", "knn", "batch", "join"};

inline constexpr uint32_t kKnnK = 10;
inline constexpr size_t kBatchWindows = 8;
/// Window half-extents scale as 1/sqrt(objects) so that a window holds
/// about this many uniform points at every tier.
inline constexpr double kWindowHits = 70.0;
/// Distinct requests per kind: on cold-read their leaf working set is far
/// larger than the pool.
inline constexpr size_t kRequestsPerKind = 8192;
/// Reader connections (caller threads at every level), plus the writer.
inline constexpr size_t kReaders = 2;

/// One benchmark workload: the data the system is built from, how the
/// tree is built, the buffer pool, and the closed-loop traffic.
struct WorkloadSpec {
  std::string name;
  size_t objects = 0;       // uniform base points in the paper frame
  size_t overlay = 0;       // join: 8x8 overlay rects
  bool durable = false;     // wal::DurableRTree::BulkLoad instead of PACK
  size_t pool_frames = 0;   // 0: pool_fraction of the tree's pages
  double pool_fraction = 0.0;
  bool spill = false;       // sort budget of a third of the input
  std::array<uint32_t, kReadKinds> mix{};  // read kind weights
  bool writer = false;      // one writer connection besides the readers
  /// read-write: readers stay strictly left of x = strip_x, the writer
  /// strictly right of it, so reads stay checkable against the base data.
  double strip_x = 0.0;
  size_t setups = 5;        // set-up repetitions (setup_s is their median)
};

/// The four workloads by name; `smoke` shrinks them for a quick check.
StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool smoke);

/// The paper's frame, [0,1000]^2.
geom::Rect Frame();

/// The base points of a seed: uniform in the frame, point i = object i.
std::vector<geom::Point> BasePoints(uint64_t seed, size_t n);
/// The join overlay of a seed: `n` 8x8 rects with uniform centers.
std::vector<geom::Rect> OverlayRects(uint64_t seed, size_t n);

/// Streams BasePoints(seed, n) as leaf entries without holding them, so
/// the out-of-core build's memory is the loader's own.
class BasePointSource final : public pack::EntrySource {
 public:
  BasePointSource(uint64_t seed, size_t n) : seed_(seed), n_(n), rng_(seed) {}
  StatusOr<bool> Next(rtree::Entry* out) override;
  Status Rewind() override;

 private:
  uint64_t seed_;
  size_t n_;
  size_t next_ = 0;
  Random rng_;
};

/// One prepared read request, in wire form, with its expected answer.
struct ReadRequest {
  ReadKind kind = kWindow;
  geom::Rect window;                // window
  geom::Point point;                // point, knn
  std::vector<geom::Rect> windows;  // batch
  net::Request wire;
  Digest digest;                    // window, point
  std::vector<Digest> batch;        // batch, per window
  std::vector<double> dists;        // knn, ascending
  uint64_t pairs = 0;               // join
};

using RequestPools = std::array<std::vector<ReadRequest>, kReadKinds>;

/// Distinct requests per kind with answers precomputed by the grid
/// oracle. Only kinds with a non-zero mix weight are generated.
RequestPools BuildRequestPools(const WorkloadSpec& spec,
                               const GridOracle& oracle,
                               const std::vector<geom::Rect>& overlay,
                               uint64_t seed);

/// A caller thread's request sequence: kind by mix weight, then a
/// uniform pick among that kind's requests. The same seed replays the
/// same sequence at every level.
class ReadStream {
 public:
  ReadStream(const RequestPools* pools,
             const std::array<uint32_t, kReadKinds>& mix, uint64_t seed)
      : pools_(pools), mix_(mix), rng_(seed) {}
  const ReadRequest& Next();

 private:
  const RequestPools* pools_;
  std::array<uint32_t, kReadKinds> mix_;
  Random rng_;
};

/// A mutation issued by the writer connection.
struct WriteOp {
  enum class Type { kInsert, kDelete, kUpdate } type = Type::kInsert;
  geom::Rect old_mbr;  // delete, update: the object's current MBR
  geom::Rect mbr;      // insert, update: the new MBR
  storage::Rid rid;
  size_t target = 0;   // index into the live set (delete, update)
};

/// The writer's op stream (insert 40 / delete 40 / update 20), confined
/// to x >= strip_x. Deletes and updates only target the writer's own
/// acknowledged inserts, tracked as its live set.
class Writer {
 public:
  struct Object {
    geom::Rect mbr;
    storage::Rid rid;
  };

  Writer(double strip_x, storage::PageId first_page)
      : strip_x_(strip_x), next_page_(first_page) {}

  WriteOp Next(Random* rng);
  /// Apply an acknowledged op to the live set.
  void Acknowledge(const WriteOp& op);
  const std::vector<Object>& live() const { return live_; }

 private:
  geom::Rect RandomStripPoint(Random* rng) const;

  double strip_x_;
  storage::PageId next_page_;
  std::vector<Object> live_;
};

}  // namespace pictdb::bench

#endif  // PICTDB_BENCH_E2E_WORKLOAD_H_
