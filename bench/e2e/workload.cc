#include "workload.h"

#include <cmath>

#include "rtree/node.h"
#include "workload/generators.h"

namespace pictdb::bench {

StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool smoke) {
  // Window 50 / point 20 / kNN 20 / batch-of-8 10.
  constexpr std::array<uint32_t, kReadKinds> kReadMix = {50, 20, 20, 10, 0};
  WorkloadSpec s;
  s.name = name;
  s.objects = smoke ? 10'000 : 100'000;
  s.pool_frames = 4096;  // holds every page of a 100k-object tree
  s.mix = kReadMix;
  if (name == "cold-read") {
    s.objects = smoke ? 200'000 : 2'000'000;
    s.pool_frames = 0;
    s.pool_fraction = 0.05;
    s.spill = true;
    s.setups = 3;
  } else if (name == "read-write") {
    s.durable = true;
    s.writer = true;
    s.strip_x = 900.0;
  } else if (name == "join") {
    s.overlay = 1000;
    s.mix = {0, 0, 0, 0, 1};
  } else if (name != "hot-read") {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (hot-read|cold-read|read-write|join)");
  }
  if (smoke) s.setups = 1;
  return s;
}

geom::Rect Frame() { return workload::PaperFrame(); }

std::vector<geom::Point> BasePoints(uint64_t seed, size_t n) {
  Random rng(seed);
  return workload::UniformPoints(&rng, n, Frame());
}

std::vector<geom::Rect> OverlayRects(uint64_t seed, size_t n) {
  Random rng(seed + 1);
  std::vector<geom::Rect> rects;
  rects.reserve(n);
  for (const geom::Point& c : workload::UniformPoints(&rng, n, Frame())) {
    rects.push_back(geom::Rect::FromCenterHalfExtent(c.x, 4.0, c.y, 4.0));
  }
  return rects;
}

StatusOr<bool> BasePointSource::Next(rtree::Entry* out) {
  if (next_ == n_) return false;
  // Same draws, in the same order, as workload::UniformPoints.
  const geom::Rect frame = Frame();
  const double x = rng_.UniformDouble(frame.lo.x, frame.hi.x);
  const double y = rng_.UniformDouble(frame.lo.y, frame.hi.y);
  out->mbr = geom::Rect::FromPoint(geom::Point{x, y});
  out->payload = rtree::Entry::PayloadFromRid(BaseRid(next_++));
  return true;
}

Status BasePointSource::Rewind() {
  rng_ = Random(seed_);
  next_ = 0;
  return Status::OK();
}

RequestPools BuildRequestPools(const WorkloadSpec& spec,
                               const GridOracle& oracle,
                               const std::vector<geom::Rect>& overlay,
                               uint64_t seed) {
  const geom::Rect frame = Frame();
  const bool confined = spec.strip_x > 0.0;
  const double x_limit = confined ? spec.strip_x : frame.hi.x;
  const double half = 0.5 * std::sqrt(kWindowHits * frame.Area() /
                                      static_cast<double>(spec.objects));
  const auto& points = oracle.points();
  Random rng(seed * 0x9e3779b97f4a7c15ull + 0x5bd1e995ull);

  const auto random_window = [&] {
    while (true) {
      const double cx = rng.UniformDouble(frame.lo.x, x_limit);
      const double cy = rng.UniformDouble(frame.lo.y, frame.hi.y);
      const geom::Rect w = geom::Rect::FromCenterHalfExtent(cx, half, cy, half);
      if (!confined || w.hi.x < spec.strip_x) return w;
    }
  };
  const auto random_point = [&] {
    return geom::Point{rng.UniformDouble(frame.lo.x, x_limit),
                       rng.UniformDouble(frame.lo.y, frame.hi.y)};
  };

  RequestPools pools;
  const size_t n = kRequestsPerKind;
  if (spec.mix[kWindow] > 0) {
    for (size_t i = 0; i < n; ++i) {
      ReadRequest r;
      r.kind = kWindow;
      r.window = random_window();
      r.wire.body = net::WindowRequest{r.window, false};
      r.digest = oracle.WindowDigest(r.window);
      pools[kWindow].push_back(std::move(r));
    }
  }
  if (spec.mix[kPoint] > 0) {
    // Half the probes hit a stored object, half land anywhere (misses).
    for (size_t i = 0; i < n; ++i) {
      ReadRequest r;
      r.kind = kPoint;
      do {
        r.point = i % 2 == 0 ? points[rng.Uniform(points.size())]
                             : random_point();
      } while (confined && r.point.x >= spec.strip_x);
      r.wire.body = net::PointRequest{r.point};
      r.digest = oracle.WindowDigest(geom::Rect::FromPoint(r.point));
      pools[kPoint].push_back(std::move(r));
    }
  }
  if (spec.mix[kKnn] > 0) {
    for (size_t i = 0; i < n; ++i) {
      ReadRequest r;
      r.kind = kKnn;
      // Confined: the k-th neighbour ball must stop short of the strip,
      // so the writer's objects can never enter the answer.
      do {
        r.point = random_point();
        r.dists = oracle.NearestDistances(r.point, kKnnK);
      } while (confined && r.point.x + r.dists.back() >= spec.strip_x);
      r.wire.body = net::KnnRequest{r.point, kKnnK};
      pools[kKnn].push_back(std::move(r));
    }
  }
  if (spec.mix[kBatch] > 0) {
    for (size_t i = 0; i < n; ++i) {
      ReadRequest r;
      r.kind = kBatch;
      for (size_t j = 0; j < kBatchWindows; ++j) {
        r.windows.push_back(random_window());
        r.batch.push_back(oracle.WindowDigest(r.windows.back()));
      }
      r.wire.body = net::BatchWindowRequest{r.windows, false};
      pools[kBatch].push_back(std::move(r));
    }
  }
  if (spec.mix[kJoin] > 0) {
    // The server hosts exactly one overlay, so there is one join request.
    ReadRequest r;
    r.kind = kJoin;
    r.wire.body = net::JoinRequest{0};
    r.pairs = oracle.CountPairs(overlay);
    pools[kJoin].push_back(std::move(r));
  }
  return pools;
}

const ReadRequest& ReadStream::Next() {
  uint32_t total = 0;
  for (uint32_t w : mix_) total += w;
  uint64_t roll = rng_.Uniform(total);
  size_t kind = 0;
  while (roll >= mix_[kind]) roll -= mix_[kind++];
  const auto& pool = (*pools_)[kind];
  return pool[rng_.Uniform(pool.size())];
}

geom::Rect Writer::RandomStripPoint(Random* rng) const {
  const geom::Rect frame = Frame();
  const double x = rng->UniformDouble(strip_x_, frame.hi.x);
  const double y = rng->UniformDouble(frame.lo.y, frame.hi.y);
  return geom::Rect::FromPoint(geom::Point{x, y});
}

WriteOp Writer::Next(Random* rng) {
  WriteOp op;
  const uint64_t roll = rng->Uniform(100);
  if (live_.empty() || roll < 40) {
    op.type = WriteOp::Type::kInsert;
    op.mbr = RandomStripPoint(rng);
    op.rid = storage::Rid{next_page_++, 1};
    return op;
  }
  op.target = static_cast<size_t>(rng->Uniform(live_.size()));
  op.old_mbr = live_[op.target].mbr;
  op.rid = live_[op.target].rid;
  if (roll < 80) {
    op.type = WriteOp::Type::kDelete;
  } else {
    op.type = WriteOp::Type::kUpdate;
    op.mbr = RandomStripPoint(rng);
  }
  return op;
}

void Writer::Acknowledge(const WriteOp& op) {
  switch (op.type) {
    case WriteOp::Type::kInsert:
      live_.push_back(Object{op.mbr, op.rid});
      break;
    case WriteOp::Type::kDelete:
      live_[op.target] = live_.back();
      live_.pop_back();
      break;
    case WriteOp::Type::kUpdate:
      live_[op.target].mbr = op.mbr;
      break;
  }
}

}  // namespace pictdb::bench
