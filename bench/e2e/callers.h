#ifndef PICTDB_BENCH_E2E_CALLERS_H_
#define PICTDB_BENCH_E2E_CALLERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "grid_oracle.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "wal/durable_tree.h"
#include "workload.h"

namespace pictdb::bench {

/// What a level returned for one read, reduced to what the checks need.
struct Answer {
  Digest digest;               // window, point
  std::vector<Digest> batch;   // batch
  std::vector<double> dists;   // knn
  uint64_t pairs = 0;          // join
  rtree::SearchStats stats;    // the level's own traversal accounting
};

/// Empty when `got` matches the request's precomputed answer, else why
/// not. O(hits): digests only.
std::string CheckAnswer(const ReadRequest& request, const Answer& got);

/// The full diff, run only after CheckAnswer failed: the window's hit
/// rids against the oracle's, as missing/extra counts with examples.
std::string DiffHits(const GridOracle& oracle, const geom::Rect& window,
                     std::vector<uint64_t> got_payloads);

/// One level of the serving stack, driven through its public entry
/// point: net::Client::Call over the socket, QueryService::RunSync /
/// ExecuteWrite, or the RTree / DurableRTree calls themselves. One
/// caller per thread.
class Caller {
 public:
  virtual ~Caller() = default;
  virtual Status Read(const ReadRequest& request, Answer* out) = 0;
  virtual Status Write(const WriteOp& op) = 0;
  /// Hit rids of the last read, one list per window (for DiffHits).
  virtual std::vector<std::vector<uint64_t>> LastHitPayloads() const = 0;
  /// Checkpoints the durable tree has taken (tree level only, else 0).
  virtual uint64_t Checkpoints() const { return 0; }
};

StatusOr<std::unique_ptr<Caller>> ConnectWire(const std::string& socket_path);
std::unique_ptr<Caller> ServiceCaller(service::QueryService* service,
                                      const rtree::RTree* overlay);
/// `durable` is null for immutable trees; when set, reads hold its
/// reader epoch and writes go through it, as the service does.
std::unique_ptr<Caller> TreeCaller(const rtree::RTree* tree,
                                   const rtree::RTree* overlay,
                                   wal::DurableRTree* durable);

}  // namespace pictdb::bench

#endif  // PICTDB_BENCH_E2E_CALLERS_H_
