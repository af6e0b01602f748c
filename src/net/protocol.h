#ifndef PICTDB_NET_PROTOCOL_H_
#define PICTDB_NET_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status_or.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "service/metrics.h"

namespace pictdb::net {

/// Versioned length-prefixed binary framing. Every message — request or
/// response, either direction — is one frame:
///
///   offset  size  field
///   0       2     magic 0xDB85 (little-endian)
///   2       1     protocol version (kProtocolVersion)
///   3       1     message type (MsgType)
///   4       4     flags (kFlagCached | kFlagDegraded)
///   8       4     request id (echoed verbatim in the response)
///   12      4     payload length in bytes (<= kMaxPayloadBytes)
///   16      -     payload (type-specific: one field list per message
///                 type in protocol.cc)
///
/// The fixed header means a reader always knows how many bytes to wait
/// for; the magic and version are checked before the length is trusted,
/// and the length bound is checked before any allocation.
inline constexpr uint16_t kMagic = 0xDB85;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;

/// Response was served from the hot-window result cache; the payload is
/// byte-identical to the originally computed response.
inline constexpr uint32_t kFlagCached = 1u << 0;
/// Response carries partial (degraded-mode) results.
inline constexpr uint32_t kFlagDegraded = 1u << 1;

enum class MsgType : uint8_t {
  // Requests.
  kWindow = 1,
  kPoint = 2,
  kKnn = 3,
  kJoin = 4,
  kPsql = 5,
  kPing = 6,
  kStats = 7,
  kSetFaults = 8,   // admin: arm/clear a server-side fault episode
  kInvalidate = 9,  // admin: bump the result-cache epoch
  // Writes (honored only when the server enables them); responses reuse
  // kOk / kError.
  kInsert = 10,
  kDelete = 11,
  kUpdate = 12,
  // Many window queries in one request, answered by one shared tree
  // descent (RTree::SearchBatch).
  kBatchWindow = 13,

  // Responses.
  kHits = 32,
  kNeighbors = 33,
  kJoinResult = 34,
  kTable = 35,
  kPong = 36,
  kStatsResult = 37,
  kOk = 38,
  kError = 39,
  kBatchHits = 40,
};

bool IsKnownMsgType(uint8_t type);
bool IsRequestType(MsgType type);
/// The query kinds (everything admission control and the result cache
/// apply to; ping/stats/admin bypass both).
bool IsQueryRequestType(MsgType type);

struct FrameHeader {
  uint16_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kPing;
  uint32_t flags = 0;
  uint32_t request_id = 0;
  uint32_t payload_len = 0;
};

/// Header + payload as wire bytes.
std::string EncodeFrame(MsgType type, uint32_t flags, uint32_t request_id,
                        std::string_view payload);

/// Decodes and validates the 16 header bytes: magic, version, known
/// type, and payload length bound. `bytes` must hold at least
/// kFrameHeaderSize bytes.
Status DecodeFrameHeader(std::string_view bytes, FrameHeader* out);

// ---------------------------------------------------------------------
// Requests.

/// Per-query execution controls carried on every query request.
struct WireOptions {
  uint64_t timeout_us = 0;   // 0 = no deadline
  bool degraded_ok = false;  // accept flagged-partial results

  friend bool operator==(const WireOptions&, const WireOptions&) = default;
};

struct WindowRequest {
  geom::Rect window;
  bool contained_only = false;
};

struct PointRequest {
  geom::Point point;
};

struct KnnRequest {
  geom::Point point;
  uint32_t k = 1;
};

/// Juxtaposition of the served tree with a server-hosted overlay tree,
/// addressed by index (clients cannot ship trees over the wire).
struct JoinRequest {
  uint32_t overlay = 0;
};

struct PsqlRequest {
  std::string text;
};

struct PingRequest {};
struct StatsRequest {};

/// Arm a fault episode on the server's FaultInjectionDiskManager (both
/// rates zero = clear all faults). Only honored when the server was
/// started with admin commands enabled.
struct SetFaultsRequest {
  double transient_read_error_rate = 0.0;
  double read_bit_flip_rate = 0.0;
};

/// Explicit whole-cache invalidation (epoch bump). Mutations invalidate
/// automatically through the service commit hook; this remains as the
/// manual/admin override.
struct InvalidateRequest {};

struct WireRid {
  uint32_t page_id = 0;
  uint16_t slot = 0;

  friend bool operator==(const WireRid&, const WireRid&) = default;
};

// Write requests. Durable on the server (WAL append + fsync) before the
// kOk response frame is sent.
struct InsertRequest {
  geom::Rect mbr;
  WireRid rid;
};

struct DeleteRequest {
  geom::Rect mbr;
  WireRid rid;
};

struct UpdateRequest {
  geom::Rect old_mbr;
  WireRid old_rid;
  geom::Rect new_mbr;
  WireRid new_rid;
};

/// Batched window search: every window answered in one shared descent.
/// Answered with BatchHitsResponse, per_window[i] for windows[i].
struct BatchWindowRequest {
  std::vector<geom::Rect> windows;
  bool contained_only = false;
};

struct Request {
  std::variant<WindowRequest, PointRequest, KnnRequest, JoinRequest,
               PsqlRequest, PingRequest, StatsRequest, SetFaultsRequest,
               InvalidateRequest, InsertRequest, DeleteRequest,
               UpdateRequest, BatchWindowRequest>
      body;
  WireOptions options;  // meaningful for the query kinds only
};

/// The three mutation kinds (write-gated on the server, never cached).
bool IsWriteRequestType(MsgType type);

MsgType RequestMsgType(const Request& request);

/// Request payload bytes (no frame header).
std::string EncodeRequestPayload(const Request& request);

/// Inverse of EncodeRequestPayload; rejects truncated payloads, trailing
/// bytes, non-finite coordinates, and oversized strings.
StatusOr<Request> DecodeRequestPayload(MsgType type,
                                       std::string_view payload);

/// Canonical result-cache key for a query request: the message type byte
/// plus the payload re-encoded with volatile fields (the timeout)
/// zeroed, so "same question, different deadline" shares one entry.
/// Empty string for non-query requests (never cached).
std::string CacheKey(const Request& request);

// ---------------------------------------------------------------------
// Responses.

/// Execution accounting echoed on every query response.
struct WireStats {
  uint64_t latency_us = 0;
  uint64_t nodes_visited = 0;
  uint64_t entries_tested = 0;
  uint64_t results = 0;
  uint64_t skipped_subtrees = 0;
  bool degraded = false;

  friend bool operator==(const WireStats&, const WireStats&) = default;
};

struct WireHit {
  geom::Rect mbr;
  WireRid rid;
};

struct WireNeighbor {
  WireHit hit;
  double distance = 0.0;
};

struct HitsResponse {
  WireStats stats;
  std::vector<WireHit> hits;
};

struct NeighborsResponse {
  WireStats stats;
  std::vector<WireNeighbor> neighbors;
};

struct JoinResponse {
  WireStats stats;
  uint64_t pairs = 0;
};

/// PSQL result rows rendered to strings (the "standard terminal" output
/// stream) plus tuple provenance rids.
struct TableResponse {
  WireStats stats;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<WireRid>> row_rids;  // one list per row
};

/// One window's share of a batched query: its hits (bit-identical,
/// including order, to asking the window alone) and whether unreadable
/// subtrees were skipped while answering it.
struct BatchWindowHits {
  bool degraded = false;
  std::vector<WireHit> hits;
};

struct BatchHitsResponse {
  WireStats stats;  // aggregate over the whole shared descent
  std::vector<BatchWindowHits> per_window;
};

struct PongResponse {};
struct OkResponse {};

struct ErrorResponse {
  uint32_t code = 0;  // StatusCode numeric value
  std::string message;

  Status ToStatus() const;
  static ErrorResponse FromStatus(const Status& status);
};

/// Server-side counters, the answer to a kStats request
/// (Client::ServerStats): service metrics (with per-variant latency
/// histograms), result-cache hit/miss/eviction counters, and the serving
/// tier's own counters.
struct StatsResponse {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t degraded = 0;
  std::array<service::HistogramSnapshot, service::kQueryVariants>
      variant_latency{};

  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;

  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t quota_rejections = 0;
  uint64_t backpressure_rejections = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;
};

struct Response {
  std::variant<HitsResponse, NeighborsResponse, JoinResponse, TableResponse,
               PongResponse, StatsResponse, OkResponse, ErrorResponse,
               BatchHitsResponse>
      body;
};

MsgType ResponseMsgType(const Response& response);

/// Response payload bytes (no frame header).
std::string EncodeResponsePayload(const Response& response);

StatusOr<Response> DecodeResponsePayload(MsgType type,
                                         std::string_view payload);

}  // namespace pictdb::net

#endif  // PICTDB_NET_PROTOCOL_H_
