#include "net/protocol.h"

#include <cmath>
#include <iterator>
#include <type_traits>
#include <utility>

#include "common/bytes.h"

namespace pictdb::net {

namespace {

// Caps on declared lengths, all well under kMaxPayloadBytes so a hostile
// length prefix cannot drive a large allocation before the payload-size
// check would have caught it. PSQL text shares the string cap.
constexpr size_t kMaxStringBytes = 64 * 1024;
constexpr size_t kMaxListElements = 1u << 20;

// The MsgType of each Request / Response body alternative, in
// alternative order.
constexpr MsgType kRequestTypes[] = {
    MsgType::kWindow, MsgType::kPoint,     MsgType::kKnn,
    MsgType::kJoin,   MsgType::kPsql,      MsgType::kPing,
    MsgType::kStats,  MsgType::kSetFaults, MsgType::kInvalidate,
    MsgType::kInsert, MsgType::kDelete,    MsgType::kUpdate,
    MsgType::kBatchWindow};
constexpr MsgType kResponseTypes[] = {
    MsgType::kHits,  MsgType::kNeighbors, MsgType::kJoinResult,
    MsgType::kTable, MsgType::kPong,      MsgType::kStatsResult,
    MsgType::kOk,    MsgType::kError,     MsgType::kBatchHits};
static_assert(std::size(kRequestTypes) ==
              std::variant_size_v<decltype(Request::body)>);
static_assert(std::size(kResponseTypes) ==
              std::variant_size_v<decltype(Response::body)>);

// Each message's wire layout is written once, as a Fields(c, m) function
// that names m's fields in wire order. A Writer runs it to append m's
// bytes; a Reader runs it to fill m in. Field operations go by the
// field's type, all little-endian:
//
//   bool               u8, 0 or 1 (a Reader refuses any other value)
//   uint8..uint64_t    fixed width; MsgType is a u8
//   double             IEEE-754 bits (a request Reader refuses non-finite)
//   std::string        u32 length <= kMaxStringBytes, then the bytes
//   std::vector        u32 count <= kMaxListElements, then the elements
//   std::array         u32 count, which must equal the array's size, then
//                      the elements
//   any other struct   its own Fields function
//
// A Reader keeps its first error and turns every later operation into a
// no-op, so field lists carry no Status plumbing. Require() states a
// rule a decoded message must keep; a Writer ignores it.

/// `T` for a Reader, which fills it in; `const T` for a Writer.
template <class C, class T>
using Msg = std::conditional_t<C::kReads, T, const T>;

class Writer {
 public:
  static constexpr bool kReads = false;

  template <class... Fs>
  void operator()(const Fs&... fields) {
    (Put(fields), ...);
  }

  /// Writes the length of `v`, whose elements the caller writes.
  size_t Count(const auto& v) {
    out_.PutU32(static_cast<uint32_t>(v.size()));
    return v.size();
  }

  /// Writes the elements of `v` with no count: the message gave it.
  void Elements(const auto& v, size_t /*count*/) {
    for (const auto& e : v) Put(e);
  }

  /// Element `i` of `v`; elements past its end go out empty.
  template <class T>
  const T& At(const std::vector<T>& v, size_t i) {
    static const T kEmpty{};
    return i < v.size() ? v[i] : kEmpty;
  }

  void Require(bool /*rule*/, const char* /*what*/) {}

  std::string Take() { return out_.Take(); }

 private:
  void Put(bool v) { out_.PutU8(v ? 1 : 0); }
  void Put(uint8_t v) { out_.PutU8(v); }
  void Put(MsgType v) { out_.PutU8(static_cast<uint8_t>(v)); }
  void Put(uint16_t v) { out_.PutU16(v); }
  void Put(uint32_t v) { out_.PutU32(v); }
  void Put(uint64_t v) { out_.PutU64(v); }
  void Put(double v) { out_.PutDouble(v); }
  void Put(const std::string& s) { out_.PutString(s); }

  template <class T, size_t N>
  void Put(const std::array<T, N>& a) {
    Put(static_cast<uint32_t>(N));
    for (const T& e : a) Put(e);
  }

  template <class T>
  void Put(const std::vector<T>& v) {
    Count(v);
    for (const T& e : v) Put(e);
  }

  template <class T>
    requires std::is_class_v<T>
  void Put(const T& m) {
    Fields(*this, m);
  }

  ByteWriter out_;
};

class Reader {
 public:
  static constexpr bool kReads = true;

  /// With `finite_doubles`, NaN and infinities are refused: every double
  /// in a request is a coordinate or a fault rate.
  Reader(std::string_view bytes, bool finite_doubles)
      : in_(bytes), finite_doubles_(finite_doubles) {}

  template <class... Fs>
  void operator()(Fs&... fields) {
    (Get(fields), ...);
  }

  /// Reads a count and sizes `v` to it. A count above kMaxListElements,
  /// or above the bytes left (every element takes at least one), is
  /// refused up front so a tiny frame cannot reserve an enormous vector.
  size_t Count(auto& v) {
    uint32_t n = 0;
    Get(n);
    Require(n <= kMaxListElements, "wire list length exceeds limit");
    Require(n <= in_.remaining(), "wire list length exceeds payload");
    v.resize(ok() ? n : 0);
    return v.size();
  }

  /// Reads `count` elements into `v`, which the message gave no count.
  void Elements(auto& v, size_t count) {
    if (!ok()) return;
    v.resize(count);
    for (auto& e : v) Get(e);
  }

  /// Element `i` of `v`, which grows to hold it.
  template <class T>
  T& At(std::vector<T>& v, size_t i) {
    if (i >= v.size()) v.resize(i + 1);
    return v[i];
  }

  void Require(bool rule, const char* what) {
    if (!rule && ok()) status_ = Status::InvalidArgument(what);
  }

  /// The first error, else an error if bytes are left over.
  Status Finish() const { return ok() ? in_.ExpectEnd() : status_; }

 private:
  bool ok() const { return status_.ok(); }

  template <class T, class ReadFn>
  void Read(T& out, ReadFn read) {
    if (!ok()) return;
    StatusOr<T> v = read();
    if (v.ok()) {
      out = std::move(v).value();
    } else {
      status_ = v.status();
    }
  }

  void Get(bool& v) {
    uint8_t b = 0;
    Get(b);
    Require(b <= 1, "wire flag must be 0 or 1");
    v = b == 1;
  }
  void Get(uint8_t& v) {
    Read(v, [this] { return in_.U8(); });
  }
  void Get(MsgType& v) {
    uint8_t b = 0;
    Get(b);
    v = static_cast<MsgType>(b);
  }
  void Get(uint16_t& v) {
    Read(v, [this] { return in_.U16(); });
  }
  void Get(uint32_t& v) {
    Read(v, [this] { return in_.U32(); });
  }
  void Get(uint64_t& v) {
    Read(v, [this] { return in_.U64(); });
  }
  void Get(double& v) {
    Read(v, [this] { return in_.Double(); });
    Require(!finite_doubles_ || std::isfinite(v),
            "request has non-finite coordinates");
  }
  void Get(std::string& s) {
    Read(s, [this] { return in_.String(kMaxStringBytes); });
  }

  template <class T, size_t N>
  void Get(std::array<T, N>& a) {
    uint32_t n = 0;
    Get(n);
    Require(n == N, "wire array length mismatch");
    for (T& e : a) Get(e);
  }

  template <class T>
  void Get(std::vector<T>& v) {
    Count(v);
    for (T& e : v) Get(e);
  }

  template <class T>
    requires std::is_class_v<T>
  void Get(T& m) {
    Fields(*this, m);
  }

  ByteReader in_;
  const bool finite_doubles_;
  Status status_;
};

// ---------------------------------------------------------------------
// The field lists.

template <class C>
void Fields(C& c, Msg<C, FrameHeader>& h) {
  c(h.magic);
  c.Require(h.magic == kMagic, "bad frame magic");
  c(h.version);
  c.Require(h.version == kProtocolVersion, "unsupported protocol version");
  c(h.type);
  c.Require(IsKnownMsgType(static_cast<uint8_t>(h.type)),
            "unknown message type");
  c(h.flags, h.request_id, h.payload_len);
  c.Require(h.payload_len <= kMaxPayloadBytes,
            "frame payload exceeds size limit");
}

template <class C>
void Fields(C& c, Msg<C, geom::Point>& p) {
  c(p.x, p.y);
}

template <class C>
void Fields(C& c, Msg<C, geom::Rect>& r) {
  c(r.lo, r.hi);
}

template <class C>
void Fields(C& c, Msg<C, WireRid>& rid) {
  c(rid.page_id, rid.slot);
}

/// Ping, Stats, Invalidate, Pong and Ok carry no payload.
template <class C, class M>
  requires std::is_empty_v<M>
void Fields(C& /*c*/, M& /*m*/) {}

// Requests.

template <class C>
void Fields(C& c, Msg<C, WireOptions>& o) {
  c(o.timeout_us, o.degraded_ok);
}

/// Query requests open with their options; the other kinds carry none.
template <class C>
void Fields(C& c, Msg<C, Request>& r) {
  if (IsQueryRequestType(RequestMsgType(r))) c(r.options);
  std::visit([&c](auto& body) { c(body); }, r.body);
}

template <class C>
void Fields(C& c, Msg<C, WindowRequest>& m) {
  c(m.window, m.contained_only);
}

template <class C>
void Fields(C& c, Msg<C, PointRequest>& m) {
  c(m.point);
}

template <class C>
void Fields(C& c, Msg<C, KnnRequest>& m) {
  c(m.point, m.k);
  c.Require(m.k <= kMaxListElements, "knn k exceeds limit");
}

template <class C>
void Fields(C& c, Msg<C, JoinRequest>& m) {
  c(m.overlay);
}

template <class C>
void Fields(C& c, Msg<C, PsqlRequest>& m) {
  c(m.text);
}

template <class C>
void Fields(C& c, Msg<C, SetFaultsRequest>& m) {
  c(m.transient_read_error_rate, m.read_bit_flip_rate);
  c.Require(m.transient_read_error_rate >= 0.0 &&
                m.transient_read_error_rate <= 1.0 &&
                m.read_bit_flip_rate >= 0.0 && m.read_bit_flip_rate <= 1.0,
            "fault rates must be in [0,1]");
}

template <class C>
void Fields(C& c, Msg<C, InsertRequest>& m) {
  c(m.mbr, m.rid);
}

template <class C>
void Fields(C& c, Msg<C, DeleteRequest>& m) {
  c(m.mbr, m.rid);
}

template <class C>
void Fields(C& c, Msg<C, UpdateRequest>& m) {
  c(m.old_mbr, m.old_rid, m.new_mbr, m.new_rid);
}

template <class C>
void Fields(C& c, Msg<C, BatchWindowRequest>& m) {
  c(m.contained_only, m.windows);
}

// Responses.

template <class C>
void Fields(C& c, Msg<C, Response>& r) {
  std::visit([&c](auto& body) { c(body); }, r.body);
}

template <class C>
void Fields(C& c, Msg<C, WireStats>& s) {
  c(s.latency_us, s.nodes_visited, s.entries_tested, s.results,
    s.skipped_subtrees, s.degraded);
}

template <class C>
void Fields(C& c, Msg<C, WireHit>& h) {
  c(h.mbr, h.rid);
}

template <class C>
void Fields(C& c, Msg<C, WireNeighbor>& n) {
  c(n.hit, n.distance);
}

template <class C>
void Fields(C& c, Msg<C, HitsResponse>& m) {
  c(m.stats, m.hits);
}

template <class C>
void Fields(C& c, Msg<C, NeighborsResponse>& m) {
  c(m.stats, m.neighbors);
}

template <class C>
void Fields(C& c, Msg<C, JoinResponse>& m) {
  c(m.stats, m.pairs);
}

/// A row has one cell per column and no count of its own; its
/// provenance rids follow its cells. Rows past the end of a short
/// row_rids go out with no rids.
template <class C>
void Fields(C& c, Msg<C, TableResponse>& m) {
  c(m.stats, m.columns);
  const size_t rows = c.Count(m.rows);
  for (size_t i = 0; i < rows; ++i) {
    c.Elements(m.rows[i], m.columns.size());
    c(c.At(m.row_rids, i));
  }
}

template <class C>
void Fields(C& c, Msg<C, service::HistogramSnapshot>& h) {
  c(h.sum, h.max, h.counts);
}

template <class C>
void Fields(C& c, Msg<C, StatsResponse>& m) {
  c(m.submitted, m.rejected, m.completed, m.failed, m.deadline_exceeded,
    m.degraded, m.variant_latency, m.cache_hits, m.cache_misses,
    m.cache_insertions, m.cache_evictions, m.cache_invalidations,
    m.cache_bytes, m.cache_entries, m.connections_accepted,
    m.connections_rejected, m.quota_rejections, m.backpressure_rejections,
    m.frames_received, m.protocol_errors);
}

template <class C>
void Fields(C& c, Msg<C, ErrorResponse>& m) {
  c(m.code, m.message);
}

template <class C>
void Fields(C& c, Msg<C, BatchWindowHits>& w) {
  c(w.degraded, w.hits);
}

template <class C>
void Fields(C& c, Msg<C, BatchHitsResponse>& m) {
  c(m.stats, m.per_window);
}

template <class M>
std::string Encode(const M& message) {
  Writer w;
  w(message);
  return w.Take();
}

/// Decodes a `type` message (Request or Response, whose body
/// alternatives have the MsgTypes `types`) from `payload`.
template <class M, size_t N>
StatusOr<M> Decode(const MsgType (&types)[N], MsgType type,
                   std::string_view payload, bool finite_doubles) {
  M out;
  const bool known = [&]<size_t... I>(std::index_sequence<I...>) {
    return ((types[I] == type && (out.body.template emplace<I>(), true)) ||
            ...);
  }(std::make_index_sequence<N>{});
  if (!known) return Status::InvalidArgument("wrong message type");
  Reader r(payload, finite_doubles);
  r(out);
  PICTDB_RETURN_IF_ERROR(r.Finish());
  return out;
}

}  // namespace

bool IsKnownMsgType(uint8_t type) {
  return (type >= static_cast<uint8_t>(MsgType::kWindow) &&
          type <= static_cast<uint8_t>(MsgType::kBatchWindow)) ||
         (type >= static_cast<uint8_t>(MsgType::kHits) &&
          type <= static_cast<uint8_t>(MsgType::kBatchHits));
}

bool IsRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return t >= static_cast<uint8_t>(MsgType::kWindow) &&
         t <= static_cast<uint8_t>(MsgType::kBatchWindow);
}

bool IsWriteRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return t >= static_cast<uint8_t>(MsgType::kInsert) &&
         t <= static_cast<uint8_t>(MsgType::kUpdate);
}

bool IsQueryRequestType(MsgType type) {
  const uint8_t t = static_cast<uint8_t>(type);
  return (t >= static_cast<uint8_t>(MsgType::kWindow) &&
          t <= static_cast<uint8_t>(MsgType::kPsql)) ||
         type == MsgType::kBatchWindow;
}

std::string EncodeFrame(MsgType type, uint32_t flags, uint32_t request_id,
                        std::string_view payload) {
  std::string frame =
      Encode(FrameHeader{.type = type,
                         .flags = flags,
                         .request_id = request_id,
                         .payload_len = static_cast<uint32_t>(payload.size())});
  frame.append(payload);
  return frame;
}

Status DecodeFrameHeader(std::string_view bytes, FrameHeader* out) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("frame header truncated");
  }
  Reader r(bytes.substr(0, kFrameHeaderSize), /*finite_doubles=*/false);
  r(*out);
  return r.Finish();
}

MsgType RequestMsgType(const Request& request) {
  return kRequestTypes[request.body.index()];
}

std::string EncodeRequestPayload(const Request& request) {
  return Encode(request);
}

StatusOr<Request> DecodeRequestPayload(MsgType type,
                                       std::string_view payload) {
  return Decode<Request>(kRequestTypes, type, payload,
                         /*finite_doubles=*/true);
}

std::string CacheKey(const Request& request) {
  const MsgType type = RequestMsgType(request);
  if (!IsQueryRequestType(type)) return std::string();
  Request canonical = request;
  canonical.options.timeout_us = 0;  // deadline does not change the answer
  std::string key(1, static_cast<char>(type));
  key += EncodeRequestPayload(canonical);
  return key;
}

Status ErrorResponse::ToStatus() const {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kDataLoss:
      return Status::DataLoss(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
  }
  return Status::Internal("unknown wire status code: " + message);
}

ErrorResponse ErrorResponse::FromStatus(const Status& status) {
  ErrorResponse e;
  e.code = static_cast<uint32_t>(status.code());
  e.message = status.message();
  return e;
}

MsgType ResponseMsgType(const Response& response) {
  return kResponseTypes[response.body.index()];
}

std::string EncodeResponsePayload(const Response& response) {
  return Encode(response);
}

StatusOr<Response> DecodeResponsePayload(MsgType type,
                                         std::string_view payload) {
  return Decode<Response>(kResponseTypes, type, payload,
                          /*finite_doubles=*/false);
}

}  // namespace pictdb::net
