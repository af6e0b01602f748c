#ifndef PICTDB_TESTS_WIRE_SAMPLES_H_
#define PICTDB_TESTS_WIRE_SAMPLES_H_

// One populated instance of every wire message type, shared by the
// golden-byte test (tests/net_protocol_test.cc) and the decoder fuzzer
// (tests/fuzz_lite_test.cc). Together they set every flag, carry
// non-empty lists, a TableResponse with fewer row_rids than rows, and a
// non-zero latency histogram.

#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace pictdb::testing_support {

inline std::vector<net::Request> SampleRequests() {
  using namespace net;  // NOLINT(build/namespaces) — test helper
  std::vector<Request> out;
  auto add = [&out](auto body, WireOptions options) {
    Request& r = out.emplace_back();
    r.body = std::move(body);
    r.options = options;
  };
  add(WindowRequest{geom::Rect(1, 2, 3, 4), true},
      {.timeout_us = 1000, .degraded_ok = true});
  add(PointRequest{geom::Point{3.25, -7.75}}, {.timeout_us = 5});
  add(KnnRequest{geom::Point{0.5, 0.25}, 17}, {.degraded_ok = true});
  add(JoinRequest{3}, {.timeout_us = 250000});
  add(PsqlRequest{"select city from cities"}, {});
  add(PingRequest{}, {});
  add(StatsRequest{}, {});
  add(SetFaultsRequest{0.25, 0.5}, {});
  add(InvalidateRequest{}, {});
  add(InsertRequest{geom::Rect(1, 2, 3, 4), WireRid{123456, 7}}, {});
  add(DeleteRequest{geom::Rect(-1, -2, 0, 0), WireRid{9, 1}}, {});
  add(UpdateRequest{geom::Rect(1, 2, 3, 4), WireRid{9, 1},
                    geom::Rect(5, 6, 7, 8), WireRid{10, 2}},
      {});
  add(BatchWindowRequest{{geom::Rect(0, 0, 1, 1), geom::Rect(2, 2, 3, 3)},
                         true},
      {.timeout_us = 7, .degraded_ok = true});
  return out;
}

inline std::vector<net::Response> SampleResponses() {
  using namespace net;  // NOLINT(build/namespaces) — test helper
  const WireStats stats{.latency_us = 123,
                        .nodes_visited = 45,
                        .entries_tested = 200,
                        .results = 7,
                        .skipped_subtrees = 1,
                        .degraded = true};
  const WireHit hit{geom::Rect(1, 2, 3, 4), WireRid{9, 2}};
  std::vector<Response> out;

  out.push_back({HitsResponse{
      stats, {hit, WireHit{geom::Rect(-1, -2, 0, 0), WireRid{77, 0}}}}});
  out.push_back({NeighborsResponse{stats, {WireNeighbor{hit, 2.5}}}});
  out.push_back({JoinResponse{stats, 987654321}});

  TableResponse table;
  table.stats.results = 3;
  table.columns = {"city", "pop"};
  table.rows = {{"Washington", "638000"}, {"Baltimore", "621000"}, {"X", ""}};
  table.row_rids = {{WireRid{4, 0}, WireRid{4, 1}}, {}};  // shorter than rows
  out.push_back({table});

  out.push_back({PongResponse{}});

  StatsResponse s;
  s.submitted = 100;
  s.rejected = 1;
  s.completed = 98;
  s.failed = 2;
  s.deadline_exceeded = 3;
  s.degraded = 4;
  s.variant_latency[0].counts[10] = 5;
  s.variant_latency[0].sum = 999;
  s.variant_latency[4].max = 777;
  s.variant_latency[5].counts[255] = 6;
  s.cache_hits = 40;
  s.cache_misses = 41;
  s.cache_insertions = 42;
  s.cache_evictions = 43;
  s.cache_invalidations = 44;
  s.cache_bytes = 45;
  s.cache_entries = 46;
  s.connections_accepted = 47;
  s.connections_rejected = 48;
  s.quota_rejections = 49;
  s.backpressure_rejections = 50;
  s.frames_received = 51;
  s.protocol_errors = 52;
  out.push_back({s});

  out.push_back({OkResponse{}});
  out.push_back(
      {ErrorResponse::FromStatus(Status::ResourceExhausted("quota exceeded"))});
  out.push_back({BatchHitsResponse{stats, {{true, {hit}}, {false, {}}}}});
  return out;
}

}  // namespace pictdb::testing_support

#endif  // PICTDB_TESTS_WIRE_SAMPLES_H_
