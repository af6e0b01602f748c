#include "callers.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "net/client.h"
#include "rtree/join.h"
#include "rtree/knn.h"
#include "storage/epoch.h"

namespace pictdb::bench {
namespace {

uint64_t Payload(const storage::Rid& rid) {
  return rtree::Entry::PayloadFromRid(rid);
}
uint64_t Payload(const net::WireRid& rid) {
  return Payload(storage::Rid{rid.page_id, rid.slot});
}

template <typename Hit>
std::vector<uint64_t> PayloadsOf(const std::vector<Hit>& hits) {
  std::vector<uint64_t> out;
  out.reserve(hits.size());
  for (const Hit& hit : hits) out.push_back(Payload(hit.rid));
  return out;
}

bool SameDistance(double a, double b) {
  return a == b || std::abs(a - b) <= 1e-9 * (1.0 + std::abs(b));
}

std::string Count(const Digest& d) { return std::to_string(d.count); }

class WireLevel final : public Caller {
 public:
  explicit WireLevel(net::Client client) : client_(std::move(client)) {}

  Status Read(const ReadRequest& request, Answer* out) override {
    PICTDB_ASSIGN_OR_RETURN(last_, client_.Call(request.wire));
    const auto& body = last_.response.body;
    const net::WireStats* stats = nullptr;
    if (const auto* hits = std::get_if<net::HitsResponse>(&body)) {
      out->digest = Digest::Of(hits->hits);
      stats = &hits->stats;
    } else if (const auto* nn = std::get_if<net::NeighborsResponse>(&body)) {
      for (const net::WireNeighbor& n : nn->neighbors) {
        out->dists.push_back(n.distance);
      }
      stats = &nn->stats;
    } else if (const auto* batch = std::get_if<net::BatchHitsResponse>(&body)) {
      for (const net::BatchWindowHits& w : batch->per_window) {
        out->batch.push_back(Digest::Of(w.hits));
      }
      stats = &batch->stats;
    } else if (const auto* join = std::get_if<net::JoinResponse>(&body)) {
      out->pairs = join->pairs;
      stats = &join->stats;
    } else {
      return Status::Internal("unexpected response body");
    }
    out->stats.nodes_visited = stats->nodes_visited;
    out->stats.entries_tested = stats->entries_tested;
    out->stats.results = stats->results;
    out->stats.degraded = stats->degraded || last_.degraded();
    return Status::OK();
  }

  Status Write(const WriteOp& op) override {
    const net::WireRid rid{op.rid.page_id, op.rid.slot};
    switch (op.type) {
      case WriteOp::Type::kInsert:
        return client_.Insert(op.mbr, rid);
      case WriteOp::Type::kDelete:
        return client_.Delete(op.old_mbr, rid);
      case WriteOp::Type::kUpdate:
        return client_.Update(op.old_mbr, rid, op.mbr, rid);
    }
    return Status::Internal("unknown write type");
  }

  std::vector<std::vector<uint64_t>> LastHitPayloads() const override {
    std::vector<std::vector<uint64_t>> out;
    const auto& body = last_.response.body;
    if (const auto* hits = std::get_if<net::HitsResponse>(&body)) {
      out.push_back(PayloadsOf(hits->hits));
    } else if (const auto* batch = std::get_if<net::BatchHitsResponse>(&body)) {
      for (const auto& w : batch->per_window) out.push_back(PayloadsOf(w.hits));
    }
    return out;
  }

 private:
  net::Client client_;
  net::Client::Result last_;
};

/// Answer of a service-level or tree-level read: both yield rtree types.
void FillAnswer(const std::vector<rtree::LeafHit>& hits,
                const std::vector<rtree::BatchHits>& batch, Answer* out) {
  out->digest = Digest::Of(hits);
  for (const rtree::BatchHits& w : batch) {
    out->batch.push_back(Digest::Of(w.hits));
  }
}

std::vector<std::vector<uint64_t>> Payloads(
    const std::vector<rtree::LeafHit>& hits,
    const std::vector<rtree::BatchHits>& batch) {
  std::vector<std::vector<uint64_t>> out;
  if (batch.empty()) {
    out.push_back(PayloadsOf(hits));
  } else {
    for (const rtree::BatchHits& w : batch) out.push_back(PayloadsOf(w.hits));
  }
  return out;
}

class ServiceLevel final : public Caller {
 public:
  ServiceLevel(service::QueryService* service, const rtree::RTree* overlay)
      : service_(service), overlay_(overlay) {}

  Status Read(const ReadRequest& request, Answer* out) override {
    service::Query query;
    switch (request.kind) {
      case kWindow:
        query = service::WindowQuery{request.window, false};
        break;
      case kPoint:
        query = service::PointQuery{request.point};
        break;
      case kKnn:
        query = service::KnnQuery{request.point, kKnnK};
        break;
      case kBatch:
        query = service::BatchWindowQuery{request.windows, false};
        break;
      case kJoin:
        query = service::JoinQuery{overlay_};
        break;
    }
    PICTDB_ASSIGN_OR_RETURN(last_, service_->RunSync(std::move(query)));
    FillAnswer(last_.hits, last_.batch, out);
    for (const rtree::Neighbor& n : last_.neighbors) {
      out->dists.push_back(n.distance);
    }
    out->pairs = last_.join_pairs;
    out->stats = last_.stats;
    return Status::OK();
  }

  Status Write(const WriteOp& op) override {
    switch (op.type) {
      case WriteOp::Type::kInsert:
        return service_->ExecuteWrite(service::InsertOp{op.mbr, op.rid});
      case WriteOp::Type::kDelete:
        return service_->ExecuteWrite(service::DeleteOp{op.old_mbr, op.rid});
      case WriteOp::Type::kUpdate:
        return service_->ExecuteWrite(
            service::UpdateOp{op.old_mbr, op.rid, op.mbr, op.rid});
    }
    return Status::Internal("unknown write type");
  }

  std::vector<std::vector<uint64_t>> LastHitPayloads() const override {
    return Payloads(last_.hits, last_.batch);
  }

 private:
  service::QueryService* service_;
  const rtree::RTree* overlay_;
  service::QueryResult last_;
};

class TreeLevel final : public Caller {
 public:
  TreeLevel(const rtree::RTree* tree, const rtree::RTree* overlay,
            wal::DurableRTree* durable)
      : tree_(tree), overlay_(overlay), durable_(durable) {}

  Status Read(const ReadRequest& request, Answer* out) override {
    storage::EpochGate::ReadGuard epoch;
    if (durable_ != nullptr) epoch = durable_->ReaderEpoch();
    hits_.clear();
    batch_.clear();
    switch (request.kind) {
      case kWindow: {
        PICTDB_ASSIGN_OR_RETURN(
            hits_, tree_->SearchIntersects(request.window, &out->stats));
        break;
      }
      case kPoint: {
        PICTDB_ASSIGN_OR_RETURN(hits_,
                                tree_->SearchPoint(request.point, &out->stats));
        break;
      }
      case kKnn: {
        PICTDB_ASSIGN_OR_RETURN(
            const std::vector<rtree::Neighbor> nn,
            rtree::SearchNearest(*tree_, request.point, kKnnK, &out->stats));
        for (const rtree::Neighbor& n : nn) out->dists.push_back(n.distance);
        break;
      }
      case kBatch: {
        PICTDB_ASSIGN_OR_RETURN(
            batch_, tree_->SearchBatch(request.windows, false, &out->stats));
        break;
      }
      case kJoin: {
        rtree::JoinStats js;
        uint64_t pairs = 0;
        PICTDB_RETURN_IF_ERROR(rtree::SpatialJoin(
            *tree_, *overlay_,
            [&pairs](const rtree::LeafHit&, const rtree::LeafHit&) {
              ++pairs;
            },
            &js));
        out->pairs = pairs;
        out->stats.nodes_visited = js.nodes_visited;
        out->stats.entries_tested = js.pairs_tested;
        out->stats.results = js.results;
        out->stats.degraded = js.degraded;
        break;
      }
    }
    FillAnswer(hits_, batch_, out);
    return Status::OK();
  }

  Status Write(const WriteOp& op) override {
    if (durable_ == nullptr) return Status::NotSupported("immutable tree");
    switch (op.type) {
      case WriteOp::Type::kInsert:
        return durable_->Insert(op.mbr, op.rid);
      case WriteOp::Type::kDelete:
        return durable_->Delete(op.old_mbr, op.rid);
      case WriteOp::Type::kUpdate:
        return durable_->Update(op.old_mbr, op.rid, op.mbr, op.rid);
    }
    return Status::Internal("unknown write type");
  }

  std::vector<std::vector<uint64_t>> LastHitPayloads() const override {
    return Payloads(hits_, batch_);
  }

  uint64_t Checkpoints() const override {
    return durable_ == nullptr ? 0 : durable_->stats().checkpoints;
  }

 private:
  const rtree::RTree* tree_;
  const rtree::RTree* overlay_;
  wal::DurableRTree* durable_;
  std::vector<rtree::LeafHit> hits_;
  std::vector<rtree::BatchHits> batch_;
};

}  // namespace

std::string CheckAnswer(const ReadRequest& request, const Answer& got) {
  if (got.stats.degraded) return "degraded (partial) answer";
  switch (request.kind) {
    case kWindow:
    case kPoint:
      if (got.digest == request.digest) return "";
      return "hits: got " + Count(got.digest) + " want " +
             Count(request.digest);
    case kKnn:
      if (got.dists.size() != request.dists.size()) {
        return "knn: got " + std::to_string(got.dists.size()) +
               " neighbours, want " + std::to_string(request.dists.size());
      }
      for (size_t i = 0; i < got.dists.size(); ++i) {
        if (!SameDistance(got.dists[i], request.dists[i])) {
          return "knn: distance mismatch at rank " + std::to_string(i);
        }
      }
      return "";
    case kBatch:
      if (got.batch.size() != request.batch.size()) {
        return "batch: got " + std::to_string(got.batch.size()) + " windows";
      }
      for (size_t i = 0; i < got.batch.size(); ++i) {
        if (!(got.batch[i] == request.batch[i])) {
          return "batch window " + std::to_string(i) + ": got " +
                 Count(got.batch[i]) + " hits, want " +
                 Count(request.batch[i]);
        }
      }
      return "";
    case kJoin:
      if (got.pairs == request.pairs) return "";
      return "join: got " + std::to_string(got.pairs) + " pairs, want " +
             std::to_string(request.pairs);
  }
  return "unknown request kind";
}

std::string DiffHits(const GridOracle& oracle, const geom::Rect& window,
                     std::vector<uint64_t> got_payloads) {
  std::sort(got_payloads.begin(), got_payloads.end());
  const std::vector<uint64_t> want = oracle.WindowPayloads(window);
  std::vector<uint64_t> missing, extra;
  std::set_difference(want.begin(), want.end(), got_payloads.begin(),
                      got_payloads.end(), std::back_inserter(missing));
  std::set_difference(got_payloads.begin(), got_payloads.end(), want.begin(),
                      want.end(), std::back_inserter(extra));
  std::string out = "window " + geom::ToString(window) + ": " +
                    std::to_string(missing.size()) + " missing, " +
                    std::to_string(extra.size()) + " extra";
  if (!missing.empty()) out += ", e.g. missing rid page " +
                               std::to_string(missing[0] >> 16);
  if (!extra.empty()) out += ", e.g. extra rid page " +
                             std::to_string(extra[0] >> 16);
  if (missing.empty() && extra.empty()) out += " (same rids, wrong MBRs)";
  return out;
}

StatusOr<std::unique_ptr<Caller>> ConnectWire(const std::string& socket_path) {
  PICTDB_ASSIGN_OR_RETURN(net::Client client,
                          net::Client::ConnectUnix(socket_path));
  // A hung server fails the run instead of hanging it.
  PICTDB_RETURN_IF_ERROR(client.SetRecvTimeout(std::chrono::seconds(60)));
  std::unique_ptr<Caller> caller = std::make_unique<WireLevel>(std::move(client));
  return caller;
}

std::unique_ptr<Caller> ServiceCaller(service::QueryService* service,
                                      const rtree::RTree* overlay) {
  return std::make_unique<ServiceLevel>(service, overlay);
}

std::unique_ptr<Caller> TreeCaller(const rtree::RTree* tree,
                                   const rtree::RTree* overlay,
                                   wal::DurableRTree* durable) {
  return std::make_unique<TreeLevel>(tree, overlay, durable);
}

}  // namespace pictdb::bench
