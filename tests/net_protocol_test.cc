// Wire protocol: primitive codec, request/response round-trips, golden
// byte vectors for every message type (the wire format is a
// compatibility contract — these bytes must never change within a
// protocol version), header validation, and malformed-payload rejection.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/protocol.h"

#include "wire_samples.h"

namespace pictdb::net {
namespace {

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

TEST(WireTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(-1234.5);
  w.PutString("hello");
  const std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U16().value(), 0x1234);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.Double().value(), -1234.5);
  EXPECT_EQ(r.String(100).value(), "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, PrimitivesAreLittleEndian) {
  ByteWriter w;
  w.PutU16(0x1234);
  w.PutU32(0xA1B2C3D4);
  EXPECT_EQ(Hex(w.str()), "3412" "d4c3b2a1");
}

TEST(WireTest, ReaderRejectsTruncation) {
  ByteReader r("\x01");
  EXPECT_FALSE(r.U32().ok());
  ByteReader r2("\x05\x00\x00\x00ab");  // declares 5 bytes, has 2
  EXPECT_FALSE(r2.String(100).ok());
  ByteReader r3("\xff\xff\xff\x7f");  // huge declared length
  EXPECT_FALSE(r3.String(100).ok());
}

TEST(WireTest, TrailingBytesAreAnError) {
  ByteReader r("\x01\x02");
  EXPECT_TRUE(r.U8().ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

// ---------------------------------------------------------------------
// Frame header.

TEST(ProtocolTest, FrameHeaderRoundTrip) {
  const std::string frame =
      EncodeFrame(MsgType::kWindow, kFlagCached, 42, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 3);
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame, &h).ok());
  EXPECT_EQ(h.magic, kMagic);
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.type, MsgType::kWindow);
  EXPECT_EQ(h.flags, kFlagCached);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, 3u);
}

TEST(ProtocolTest, GoldenFrameHeaderBytes) {
  // magic 85 db | version 01 | type 06 (ping) | flags 0 | id 7 | len 0.
  const std::string frame = EncodeFrame(MsgType::kPing, 0, 7, "");
  EXPECT_EQ(Hex(frame), "85db0106" "00000000" "07000000" "00000000");
}

TEST(ProtocolTest, HeaderRejectsBadMagicVersionTypeAndSize) {
  std::string good = EncodeFrame(MsgType::kPing, 0, 0, "");
  FrameHeader h;

  std::string bad_magic = good;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(DecodeFrameHeader(bad_magic, &h).ok());

  std::string bad_version = good;
  bad_version[2] = 99;
  EXPECT_FALSE(DecodeFrameHeader(bad_version, &h).ok());

  std::string bad_type = good;
  bad_type[3] = static_cast<char>(200);
  EXPECT_FALSE(DecodeFrameHeader(bad_type, &h).ok());

  std::string bad_type2 = good;
  bad_type2[3] = 0;  // type 0 is reserved / unknown
  EXPECT_FALSE(DecodeFrameHeader(bad_type2, &h).ok());

  // Oversized declared payload.
  std::string oversized = good;
  oversized[12] = static_cast<char>(0xFF);
  oversized[13] = static_cast<char>(0xFF);
  oversized[14] = static_cast<char>(0xFF);
  oversized[15] = static_cast<char>(0x7F);
  EXPECT_FALSE(DecodeFrameHeader(oversized, &h).ok());

  EXPECT_FALSE(DecodeFrameHeader("short", &h).ok());
}

// ---------------------------------------------------------------------
// Request codecs.

TEST(ProtocolTest, WindowRequestRoundTrip) {
  Request req;
  req.options = {.timeout_us = 250000, .degraded_ok = true};
  req.body = WindowRequest{geom::Rect(1.5, -2.5, 10.0, 20.0), true};
  EXPECT_EQ(RequestMsgType(req), MsgType::kWindow);

  const std::string payload = EncodeRequestPayload(req);
  auto decoded = DecodeRequestPayload(MsgType::kWindow, payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->options, req.options);
  const auto& q = std::get<WindowRequest>(decoded->body);
  EXPECT_EQ(q.window.lo.x, 1.5);
  EXPECT_EQ(q.window.hi.y, 20.0);
  EXPECT_TRUE(q.contained_only);
}

TEST(ProtocolTest, GoldenWindowRequestBytes) {
  // The golden vector locks the v1 window-request layout:
  //   timeout_us u64 | degraded u8 | 4 doubles | contained u8.
  Request req;
  req.options = {.timeout_us = 1000, .degraded_ok = false};
  req.body = WindowRequest{geom::Rect(1.0, 2.0, 3.0, 4.0), false};
  EXPECT_EQ(Hex(EncodeRequestPayload(req)),
            "e803000000000000"          // timeout 1000
            "00"                        // degraded_ok
            "000000000000f03f"          // 1.0
            "0000000000000040"          // 2.0
            "0000000000000840"          // 3.0
            "0000000000001040"          // 4.0
            "00");                      // contained
}

/// `n` zero bytes, as hex.
std::string Zeros(size_t n) { return std::string(2 * n, '0'); }

/// A latency histogram with nothing recorded.
std::string EmptyHistogram() { return Zeros(16) + "00010000" + Zeros(256 * 8); }

TEST(ProtocolTest, GoldenBytesForEveryMessageType) {
  // The payload of one populated instance of each message type
  // (tests/wire_samples.h), in MsgType order. Query requests open with
  // the options (timeout_us u64, degraded_ok u8); responses to queries
  // open with the stats block (five u64 counters, degraded u8). Doubles
  // are IEEE-754 bits, everything little-endian.
  const std::string kRequestHex[] = {
      // kWindow
      "e80300000000000001"                    // options
      "000000000000f03f0000000000000040"      // rect
      "00000000000008400000000000001040"
      "01",                                   // contained_only
      // kPoint
      "050000000000000000"                    // options
      "0000000000000a400000000000001fc0",     // point
      // kKnn
      "000000000000000001"                    // options
      "000000000000e03f000000000000d03f"      // point
      "11000000",                             // k
      // kJoin
      "90d003000000000000"                    // options
      "03000000",                             // overlay
      // kPsql
      "000000000000000000"                    // options
      "17000000"                              // text length
      "73656c65637420636974792066726f6d"      // text
      "20636974696573",
      // kPing, kStats (empty payloads)
      "",
      "",
      // kSetFaults
      "000000000000d03f000000000000e03f",     // rates
      // kInvalidate
      "",
      // kInsert
      "000000000000f03f0000000000000040"      // rect
      "00000000000008400000000000001040"
      "40e201000700",                         // rid
      // kDelete
      "000000000000f0bf00000000000000c0"      // rect
      "00000000000000000000000000000000"
      "090000000100",                         // rid
      // kUpdate
      "000000000000f03f0000000000000040"      // old mbr
      "00000000000008400000000000001040"
      "090000000100"                          // old rid
      "00000000000014400000000000001840"      // new mbr
      "0000000000001c400000000000002040"
      "0a0000000200",                         // new rid
      // kBatchWindow
      "070000000000000001"                    // options
      "01"                                    // contained_only
      "02000000"                              // 2 windows
      "00000000000000000000000000000000"      // window
      "000000000000f03f000000000000f03f"
      "00000000000000400000000000000040"      // window
      "00000000000008400000000000000840",
  };
  const std::string kResponseHex[] = {
      // kHits
      "7b000000000000002d00000000000000"      // stats
      "c8000000000000000700000000000000"
      "010000000000000001"
      "02000000"                              // 2 hits
      "000000000000f03f0000000000000040"      // hit mbr
      "00000000000008400000000000001040"
      "090000000200"                          // hit rid
      "000000000000f0bf00000000000000c0"      // hit mbr
      "00000000000000000000000000000000"
      "4d0000000000",                         // hit rid
      // kNeighbors
      "7b000000000000002d00000000000000"      // stats
      "c8000000000000000700000000000000"
      "010000000000000001"
      "01000000"                              // 1 neighbor
      "000000000000f03f0000000000000040"      // hit mbr
      "00000000000008400000000000001040"
      "090000000200"                          // hit rid
      "0000000000000440",                     // distance
      // kJoinResult
      "7b000000000000002d00000000000000"      // stats
      "c8000000000000000700000000000000"
      "010000000000000001"
      "b168de3a00000000",                     // pairs
      // kTable
      "00000000000000000000000000000000"      // stats
      "00000000000000000300000000000000"
      "000000000000000000"
      "02000000"                              // 2 columns
      "0400000063697479"                      // "city"
      "03000000706f70"                        // "pop"
      "03000000"                              // 3 rows
      "0a00000057617368696e67746f6e"          // row 0 cells
      "06000000363338303030"
      "02000000"                              // row 0: 2 rids
      "040000000000040000000100"
      "0900000042616c74696d6f7265"            // row 1 cells
      "06000000363231303030"
      "00000000"                              // row 1: 0 rids
      "0100000058"                            // row 2 cells
      "00000000"
      "00000000",                             // row 2: 0 rids (past row_rids)
      // kPong
      "",
      // kStatsResult: six service counters; the variant count and each
      // variant's latency histogram (sum u64, max u64, bucket count u32 =
      // 256, then 256 u64 buckets); the cache and serving counters.
      std::string("6400000000000000" "0100000000000000" "6200000000000000"
                  "0200000000000000" "0300000000000000" "0400000000000000"
                  "06000000") +
      // Variant 0: sum 999, bucket 10 holds 5.
      "e703000000000000" + Zeros(8) + "00010000" + Zeros(10 * 8) +
      "0500000000000000" + Zeros(245 * 8) +
      // Variants 1-3: empty.
      EmptyHistogram() + EmptyHistogram() + EmptyHistogram() +
      // Variant 4: max 777.
      Zeros(8) + "0903000000000000" + "00010000" + Zeros(256 * 8) +
      // Variant 5: bucket 255 holds 6.
      Zeros(16) + "00010000" + Zeros(255 * 8) + "0600000000000000" +
      "2800000000000000" "2900000000000000" "2a00000000000000"
      "2b00000000000000" "2c00000000000000" "2d00000000000000"
      "2e00000000000000" "2f00000000000000" "3000000000000000"
      "3100000000000000" "3200000000000000" "3300000000000000"
      "3400000000000000",
      // kOk
      "",
      // kError
      "08000000"                              // code
      "0e000000"                              // message length
      "71756f7461206578636565646564",         // message
      // kBatchHits
      "7b000000000000002d00000000000000"      // stats
      "c8000000000000000700000000000000"
      "010000000000000001"
      "02000000"                              // 2 windows
      "01"                                    // degraded
      "01000000"                              // 1 hit
      "000000000000f03f0000000000000040"      // hit mbr
      "00000000000008400000000000001040"
      "090000000200"                          // hit rid
      "00"                                    // degraded
      "00000000",                             // 0 hits
  };
  const std::vector<Request> requests = testing_support::SampleRequests();
  ASSERT_EQ(requests.size(), std::size(kRequestHex));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(RequestMsgType(requests[i]), static_cast<MsgType>(1 + i));
    EXPECT_EQ(Hex(EncodeRequestPayload(requests[i])), kRequestHex[i])
        << "request type " << 1 + i;
  }
  const std::vector<Response> responses = testing_support::SampleResponses();
  ASSERT_EQ(responses.size(), std::size(kResponseHex));
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(ResponseMsgType(responses[i]), static_cast<MsgType>(32 + i));
    EXPECT_EQ(Hex(EncodeResponsePayload(responses[i])), kResponseHex[i])
        << "response type " << 32 + i;
  }
}

TEST(ProtocolTest, PointAndKnnAndJoinAndPsqlRoundTrip) {
  Request point;
  point.body = PointRequest{geom::Point{3.25, -7.75}};
  auto p2 = DecodeRequestPayload(MsgType::kPoint,
                                 EncodeRequestPayload(point));
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(std::get<PointRequest>(p2->body).point.x, 3.25);

  Request knn;
  knn.options.timeout_us = 5;
  knn.body = KnnRequest{geom::Point{0.5, 0.25}, 17};
  auto k2 = DecodeRequestPayload(MsgType::kKnn, EncodeRequestPayload(knn));
  ASSERT_TRUE(k2.ok());
  EXPECT_EQ(std::get<KnnRequest>(k2->body).k, 17u);
  EXPECT_EQ(k2->options.timeout_us, 5u);

  Request join;
  join.body = JoinRequest{3};
  auto j2 = DecodeRequestPayload(MsgType::kJoin,
                                 EncodeRequestPayload(join));
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(std::get<JoinRequest>(j2->body).overlay, 3u);

  Request psql;
  psql.body = PsqlRequest{"select city from cities on us-map"};
  auto q2 = DecodeRequestPayload(MsgType::kPsql,
                                 EncodeRequestPayload(psql));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(std::get<PsqlRequest>(q2->body).text,
            "select city from cities on us-map");
}

TEST(ProtocolTest, AdminRequestsRoundTrip) {
  Request faults;
  faults.body = SetFaultsRequest{0.01, 0.001};
  auto f2 = DecodeRequestPayload(MsgType::kSetFaults,
                                 EncodeRequestPayload(faults));
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(std::get<SetFaultsRequest>(f2->body).transient_read_error_rate,
            0.01);

  for (const MsgType t :
       {MsgType::kPing, MsgType::kStats, MsgType::kInvalidate}) {
    auto decoded = DecodeRequestPayload(t, "");
    EXPECT_TRUE(decoded.ok()) << static_cast<int>(t);
  }
}

TEST(ProtocolTest, WriteRequestsRoundTrip) {
  const WireRid rid{123456, 7};
  Request insert;
  insert.body = InsertRequest{geom::Rect(1, 2, 3, 4), rid};
  EXPECT_EQ(RequestMsgType(insert), MsgType::kInsert);
  auto i2 =
      DecodeRequestPayload(MsgType::kInsert, EncodeRequestPayload(insert));
  ASSERT_TRUE(i2.ok()) << i2.status().ToString();
  EXPECT_EQ(std::get<InsertRequest>(i2->body).mbr, geom::Rect(1, 2, 3, 4));
  EXPECT_EQ(std::get<InsertRequest>(i2->body).rid, rid);

  Request del;
  del.body = DeleteRequest{geom::Rect(1, 2, 3, 4), rid};
  EXPECT_EQ(RequestMsgType(del), MsgType::kDelete);
  auto d2 = DecodeRequestPayload(MsgType::kDelete, EncodeRequestPayload(del));
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(std::get<DeleteRequest>(d2->body).rid, rid);

  Request update;
  update.body = UpdateRequest{geom::Rect(1, 2, 3, 4), rid,
                              geom::Rect(5, 6, 7, 8), WireRid{9, 1}};
  EXPECT_EQ(RequestMsgType(update), MsgType::kUpdate);
  auto u2 =
      DecodeRequestPayload(MsgType::kUpdate, EncodeRequestPayload(update));
  ASSERT_TRUE(u2.ok());
  const auto& up = std::get<UpdateRequest>(u2->body);
  EXPECT_EQ(up.old_mbr, geom::Rect(1, 2, 3, 4));
  EXPECT_EQ(up.new_mbr, geom::Rect(5, 6, 7, 8));
  EXPECT_EQ(up.new_rid, (WireRid{9, 1}));
}

TEST(ProtocolTest, WriteTypePredicates) {
  for (const MsgType t :
       {MsgType::kInsert, MsgType::kDelete, MsgType::kUpdate}) {
    EXPECT_TRUE(IsKnownMsgType(static_cast<uint8_t>(t))) << static_cast<int>(t);
    EXPECT_TRUE(IsRequestType(t)) << static_cast<int>(t);
    EXPECT_TRUE(IsWriteRequestType(t)) << static_cast<int>(t);
    // Writes are NOT query requests: they bypass cache key derivation.
    EXPECT_FALSE(IsQueryRequestType(t)) << static_cast<int>(t);
  }
  for (const MsgType t : {MsgType::kWindow, MsgType::kPing, MsgType::kStats,
                          MsgType::kHits, MsgType::kOk}) {
    EXPECT_FALSE(IsWriteRequestType(t)) << static_cast<int>(t);
  }
}

TEST(ProtocolTest, WriteRequestDecodeRejectsMalformedPayloads) {
  Request insert;
  insert.body = InsertRequest{geom::Rect(1, 2, 3, 4), WireRid{5, 6}};
  const std::string payload = EncodeRequestPayload(insert);
  EXPECT_FALSE(
      DecodeRequestPayload(MsgType::kInsert, payload.substr(0, 8)).ok());
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kInsert, payload + "x").ok());
  // Non-finite MBR coordinates are rejected before they reach the tree.
  Request nan_insert;
  nan_insert.body = InsertRequest{
      geom::Rect(std::numeric_limits<double>::infinity(), 0, 1, 1),
      WireRid{5, 6}};
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kInsert,
                                    EncodeRequestPayload(nan_insert))
                   .ok());
}

TEST(ProtocolTest, RequestDecodeRejectsMalformedPayloads) {
  // Truncated window payload.
  Request req;
  req.body = WindowRequest{geom::Rect(0, 0, 1, 1), false};
  std::string payload = EncodeRequestPayload(req);
  for (const size_t cut : {size_t{0}, size_t{4}, payload.size() - 1}) {
    EXPECT_FALSE(
        DecodeRequestPayload(MsgType::kWindow, payload.substr(0, cut)).ok());
  }
  // Trailing garbage.
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kWindow, payload + "x").ok());
  // Non-finite coordinates.
  Request nan_req;
  nan_req.body = WindowRequest{
      geom::Rect(std::numeric_limits<double>::quiet_NaN(), 0, 1, 1), false};
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kWindow,
                                    EncodeRequestPayload(nan_req))
                   .ok());
  // Fault rates out of range.
  Request faults;
  faults.body = SetFaultsRequest{1.5, 0.0};
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kSetFaults,
                                    EncodeRequestPayload(faults))
                   .ok());
  // Ping with a body.
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kPing, "junk").ok());
  // Response type fed to the request decoder.
  EXPECT_FALSE(DecodeRequestPayload(MsgType::kHits, "").ok());
}

// ---------------------------------------------------------------------
// Response codecs.

WireStats SampleStats() {
  WireStats s;
  s.latency_us = 123;
  s.nodes_visited = 45;
  s.entries_tested = 200;
  s.results = 7;
  s.skipped_subtrees = 1;
  s.degraded = true;
  return s;
}

TEST(ProtocolTest, HitsResponseRoundTrip) {
  HitsResponse resp;
  resp.stats = SampleStats();
  resp.hits.push_back(WireHit{geom::Rect(1, 2, 3, 4), WireRid{9, 2}});
  resp.hits.push_back(WireHit{geom::Rect(-1, -2, 0, 0), WireRid{77, 0}});
  const Response response{resp};
  EXPECT_EQ(ResponseMsgType(response), MsgType::kHits);

  const std::string payload = EncodeResponsePayload(response);
  auto decoded = DecodeResponsePayload(MsgType::kHits, payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = std::get<HitsResponse>(decoded->body);
  EXPECT_EQ(got.stats, resp.stats);
  ASSERT_EQ(got.hits.size(), 2u);
  EXPECT_EQ(got.hits[0].rid, (WireRid{9, 2}));
  EXPECT_EQ(got.hits[1].mbr.lo.x, -1.0);
}

TEST(ProtocolTest, NeighborsAndJoinResponseRoundTrip) {
  NeighborsResponse nresp;
  nresp.stats = SampleStats();
  nresp.neighbors.push_back(
      WireNeighbor{WireHit{geom::Rect(5, 5, 6, 6), WireRid{1, 1}}, 2.5});
  auto n2 = DecodeResponsePayload(
      MsgType::kNeighbors, EncodeResponsePayload(Response{nresp}));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(std::get<NeighborsResponse>(n2->body).neighbors[0].distance,
            2.5);

  JoinResponse jresp;
  jresp.stats = SampleStats();
  jresp.pairs = 987654321;
  auto j2 = DecodeResponsePayload(MsgType::kJoinResult,
                                  EncodeResponsePayload(Response{jresp}));
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(std::get<JoinResponse>(j2->body).pairs, 987654321u);
}

TEST(ProtocolTest, TableResponseRoundTrip) {
  TableResponse resp;
  resp.stats.results = 2;
  resp.columns = {"city", "population"};
  resp.rows = {{"Washington", "638000"}, {"Baltimore", "621000"}};
  resp.row_rids = {{WireRid{4, 0}}, {WireRid{4, 1}}};
  auto decoded = DecodeResponsePayload(
      MsgType::kTable, EncodeResponsePayload(Response{resp}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = std::get<TableResponse>(decoded->body);
  EXPECT_EQ(got.columns, resp.columns);
  EXPECT_EQ(got.rows, resp.rows);
  EXPECT_EQ(got.row_rids[1][0], (WireRid{4, 1}));
}

TEST(ProtocolTest, ErrorResponseRoundTripAndStatusMapping) {
  const Status original = Status::ResourceExhausted("quota exceeded");
  ErrorResponse e = ErrorResponse::FromStatus(original);
  auto decoded = DecodeResponsePayload(MsgType::kError,
                                       EncodeResponsePayload(Response{e}));
  ASSERT_TRUE(decoded.ok());
  const Status back = std::get<ErrorResponse>(decoded->body).ToStatus();
  EXPECT_TRUE(back.IsResourceExhausted());
  EXPECT_EQ(back.message(), "quota exceeded");
}

TEST(ProtocolTest, StatsResponseRoundTrip) {
  StatsResponse resp;
  resp.submitted = 100;
  resp.completed = 98;
  resp.cache_hits = 40;
  resp.protocol_errors = 3;
  resp.variant_latency[0].counts[10] = 5;
  resp.variant_latency[0].sum = 999;
  resp.variant_latency[4].max = 777;
  auto decoded = DecodeResponsePayload(
      MsgType::kStatsResult, EncodeResponsePayload(Response{resp}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = std::get<StatsResponse>(decoded->body);
  EXPECT_EQ(got.submitted, 100u);
  EXPECT_EQ(got.cache_hits, 40u);
  EXPECT_EQ(got.variant_latency[0].counts[10], 5u);
  EXPECT_EQ(got.variant_latency[0].sum, 999u);
  EXPECT_EQ(got.variant_latency[4].max, 777u);
}

TEST(ProtocolTest, ResponseDecodeRejectsMalformedPayloads) {
  HitsResponse resp;
  resp.hits.push_back(WireHit{geom::Rect(0, 0, 1, 1), WireRid{1, 0}});
  std::string payload = EncodeResponsePayload(Response{resp});
  EXPECT_FALSE(
      DecodeResponsePayload(MsgType::kHits, payload.substr(0, 10)).ok());
  EXPECT_FALSE(DecodeResponsePayload(MsgType::kHits, payload + "z").ok());
  // A count that promises more elements than the payload can hold.
  ByteWriter w;
  for (int i = 0; i < 41; ++i) w.PutU8(0);  // stats block
  w.PutU32(1000000);                        // 1M hits in 0 bytes
  EXPECT_FALSE(DecodeResponsePayload(MsgType::kHits, w.str()).ok());
}

// ---------------------------------------------------------------------
// Cache keys.

TEST(ProtocolTest, CacheKeyCanonicalizesTimeout) {
  Request a, b;
  a.body = WindowRequest{geom::Rect(0, 0, 10, 10), false};
  a.options.timeout_us = 1000;
  b.body = WindowRequest{geom::Rect(0, 0, 10, 10), false};
  b.options.timeout_us = 999999;  // different deadline, same question
  EXPECT_EQ(CacheKey(a), CacheKey(b));
  EXPECT_FALSE(CacheKey(a).empty());

  // Different window => different key.
  Request c;
  c.body = WindowRequest{geom::Rect(0, 0, 10, 11), false};
  EXPECT_NE(CacheKey(a), CacheKey(c));

  // Same window, different kind => different key.
  Request d;
  d.body = WindowRequest{geom::Rect(0, 0, 10, 10), true};
  EXPECT_NE(CacheKey(a), CacheKey(d));

  // degraded_ok is part of the key (conservative).
  Request e = a;
  e.options.degraded_ok = true;
  EXPECT_NE(CacheKey(a), CacheKey(e));

  // Non-query requests are never cached.
  Request ping;
  ping.body = PingRequest{};
  EXPECT_TRUE(CacheKey(ping).empty());
}

}  // namespace
}  // namespace pictdb::net
