#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace pictdb::net {
namespace {

// Signal → drain plumbing: the handler calls the registered server's
// RequestDrain, which is async-signal-safe. Registration is
// per-process, latest wins.
std::atomic<Server*> g_signal_server{nullptr};

void OnDrainSignal(int /*signo*/) {
  const int saved_errno = errno;
  Server* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
  errno = saved_errno;
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed");
  }
  (void)fcntl(fd, F_SETFD, FD_CLOEXEC);
  return Status::OK();
}

WireStats ToWireStats(const service::QueryResult& result) {
  WireStats s;
  s.latency_us = result.latency_us;
  s.nodes_visited = result.stats.nodes_visited;
  s.entries_tested = result.stats.entries_tested;
  s.results = result.stats.results;
  s.skipped_subtrees = result.skipped_subtrees;
  s.degraded = result.degraded;
  return s;
}

WireHit ToWireHit(const rtree::LeafHit& hit) {
  WireHit w;
  w.mbr = hit.mbr;
  w.rid.page_id = hit.rid.page_id;
  w.rid.slot = hit.rid.slot;
  return w;
}

/// Shape the service outcome into the response kind the request implies.
Response BuildQueryResponse(MsgType request_type,
                            const service::QueryResult& result) {
  Response response;
  switch (request_type) {
    case MsgType::kWindow:
    case MsgType::kPoint: {
      HitsResponse body;
      body.stats = ToWireStats(result);
      body.hits.reserve(result.hits.size());
      for (const rtree::LeafHit& hit : result.hits) {
        body.hits.push_back(ToWireHit(hit));
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kKnn: {
      NeighborsResponse body;
      body.stats = ToWireStats(result);
      body.neighbors.reserve(result.neighbors.size());
      for (const rtree::Neighbor& n : result.neighbors) {
        WireNeighbor w;
        w.hit = ToWireHit(n.hit);
        w.distance = n.distance;
        body.neighbors.push_back(w);
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kJoin: {
      JoinResponse body;
      body.stats = ToWireStats(result);
      body.pairs = result.join_pairs;
      response.body = body;
      break;
    }
    case MsgType::kPsql: {
      TableResponse body;
      body.stats = ToWireStats(result);
      if (result.table.has_value()) {
        const psql::ResultSet& table = *result.table;
        body.columns = table.columns;
        body.rows.reserve(table.rows.size());
        for (const auto& row : table.rows) {
          std::vector<std::string> cells;
          cells.reserve(row.size());
          for (const rel::Value& value : row) cells.push_back(value.ToString());
          body.rows.push_back(std::move(cells));
        }
        body.row_rids.reserve(table.row_rids.size());
        for (const auto& rids : table.row_rids) {
          std::vector<WireRid> wire_rids;
          wire_rids.reserve(rids.size());
          for (const storage::Rid& rid : rids) {
            wire_rids.push_back(WireRid{rid.page_id, rid.slot});
          }
          body.row_rids.push_back(std::move(wire_rids));
        }
      }
      response.body = std::move(body);
      break;
    }
    case MsgType::kBatchWindow: {
      BatchHitsResponse body;
      body.stats = ToWireStats(result);
      body.per_window.reserve(result.batch.size());
      for (const rtree::BatchHits& bh : result.batch) {
        BatchWindowHits bw;
        bw.degraded = bh.degraded;
        bw.hits.reserve(bh.hits.size());
        for (const rtree::LeafHit& hit : bh.hits) {
          bw.hits.push_back(ToWireHit(hit));
        }
        body.per_window.push_back(std::move(bw));
      }
      response.body = std::move(body);
      break;
    }
    default:
      response.body = ErrorResponse::FromStatus(
          Status::Internal("BuildQueryResponse on non-query type"));
      break;
  }
  return response;
}

}  // namespace


Server::Server(const Bindings& bindings, const ServerOptions& options)
    : bindings_(bindings),
      options_(options),
      cache_(options.cache_bytes, options.cache_shards) {}

Server::~Server() {
  Stop();
  if (g_signal_server.load(std::memory_order_acquire) == this) {
    InstallSignalHandlers(nullptr);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  epoll_fd_ = -1;
  wake_fd_ = -1;
}

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already started");
  }
  if (bindings_.service == nullptr) {
    return Status::InvalidArgument("server needs a QueryService");
  }
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (options_.allow_writes) {
    // Every committed mutation makes cached query answers stale; the
    // commit hook runs on the committing thread, after the WAL fsync.
    bindings_.service->SetCommitHook([this] { InvalidateCache(); });
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1() failed");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Status::IOError("eventfd() failed");
  // Level-triggered and never read: once written, every serving thread's
  // epoll_wait reports it.
  if (!Arm(EPOLL_CTL_ADD, wake_fd_, &wake_fd_, EPOLLIN)) {
    return Status::IOError("epoll_ctl(eventfd) failed");
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    memcpy(addr.sun_path, options_.unix_path.c_str(),
           options_.unix_path.size() + 1);
    unix_listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) return Status::IOError("socket(AF_UNIX) failed");
    (void)unlink(options_.unix_path.c_str());
    if (bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError("bind(" + options_.unix_path +
                             ") failed: " + strerror(errno));
    }
    if (listen(unix_listen_fd_, 128) != 0) {
      return Status::IOError("listen(unix) failed");
    }
    PICTDB_RETURN_IF_ERROR(SetNonBlocking(unix_listen_fd_));
    if (!Arm(EPOLL_CTL_ADD, unix_listen_fd_, &unix_listen_fd_,
             EPOLLIN | EPOLLONESHOT)) {
      return Status::IOError("epoll_ctl(unix listener) failed");
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) return Status::IOError("socket(AF_INET) failed");
    const int one = 1;
    (void)setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad tcp host: " + options_.tcp_host);
    }
    if (bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
      return Status::IOError(std::string("bind(tcp) failed: ") +
                             strerror(errno));
    }
    if (listen(tcp_listen_fd_, 128) != 0) {
      return Status::IOError("listen(tcp) failed");
    }
    PICTDB_RETURN_IF_ERROR(SetNonBlocking(tcp_listen_fd_));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
    if (!Arm(EPOLL_CTL_ADD, tcp_listen_fd_, &tcp_listen_fd_,
             EPOLLIN | EPOLLONESHOT)) {
      return Status::IOError("epoll_ctl(tcp listener) failed");
    }
  }

  started_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const size_t n =
      std::max<size_t>(1, bindings_.service->options().num_threads);
  live_threads_.store(n, std::memory_order_release);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back(&Server::ServeLoop, this);
  }
  if (drain_requested_.load(std::memory_order_acquire)) RequestDrain();
  return Status::OK();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ < 0) return;  // not started: Start() posts the wake
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void Server::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  RequestDrain();
  Join();
}

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server.store(server, std::memory_order_release);
  if (server != nullptr) {
    struct sigaction action = {};
    action.sa_handler = OnDrainSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    (void)sigaction(SIGINT, &action, nullptr);
    (void)sigaction(SIGTERM, &action, nullptr);
  }
}

ServerStatsSnapshot Server::Stats() const {
  ServerStatsSnapshot s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  s.backpressure_rejections =
      backpressure_rejections_.load(std::memory_order_relaxed);
  s.cache_hits = cache_.Stats().hits;
  return s;
}
void Server::DumpStats(std::FILE* out) const {
  const ServerStatsSnapshot net = Stats();
  fprintf(out,
          "net: accepted=%llu rejected=%llu frames=%llu proto_errors=%llu "
          "quota_rej=%llu backpressure_rej=%llu\n",
          static_cast<unsigned long long>(net.connections_accepted),
          static_cast<unsigned long long>(net.connections_rejected),
          static_cast<unsigned long long>(net.frames_received),
          static_cast<unsigned long long>(net.protocol_errors),
          static_cast<unsigned long long>(net.quota_rejections),
          static_cast<unsigned long long>(net.backpressure_rejections));
  const ResultCacheStats cache = cache_.Stats();
  fprintf(out,
          "cache: hits=%llu misses=%llu insertions=%llu evictions=%llu "
          "invalidations=%llu bytes=%llu entries=%llu\n",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses),
          static_cast<unsigned long long>(cache.insertions),
          static_cast<unsigned long long>(cache.evictions),
          static_cast<unsigned long long>(cache.invalidations),
          static_cast<unsigned long long>(cache.bytes),
          static_cast<unsigned long long>(cache.entries));
  if (bindings_.service != nullptr) {
    const service::ServiceMetricsSnapshot m = bindings_.service->Metrics();
    fprintf(out,
            "service: submitted=%llu rejected=%llu completed=%llu "
            "failed=%llu deadline=%llu degraded=%llu\n",
            static_cast<unsigned long long>(m.submitted),
            static_cast<unsigned long long>(m.rejected),
            static_cast<unsigned long long>(m.completed),
            static_cast<unsigned long long>(m.failed),
            static_cast<unsigned long long>(m.deadline_exceeded),
            static_cast<unsigned long long>(m.degraded));
    for (size_t v = 0; v < service::kQueryVariants; ++v) {
      fprintf(out, "latency[%s]: %s\n", service::kQueryVariantNames[v],
              m.variant_latency[v].Summary().c_str());
    }
    const service::WriteMetricsSnapshot wm =
        bindings_.service->write_metrics();
    if (wm.committed() + wm.failed + wm.not_found > 0) {
      fprintf(out,
              "writes: inserts=%llu deletes=%llu updates=%llu failed=%llu "
              "not_found=%llu\n",
              static_cast<unsigned long long>(wm.inserts),
              static_cast<unsigned long long>(wm.deletes),
              static_cast<unsigned long long>(wm.updates),
              static_cast<unsigned long long>(wm.failed),
              static_cast<unsigned long long>(wm.not_found));
      fprintf(out, "latency[commit]: %s\n",
              wm.commit_latency.Summary().c_str());
    }
  }
}

bool Server::Arm(int op, int fd, void* tag, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  return epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
}

void Server::CloseListeners() {
  if (unix_listen_fd_ >= 0) {
    close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    if (!options_.unix_path.empty()) (void)unlink(options_.unix_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

void Server::CloseConnection(Connection* conn) {
  close(conn->fd);  // also drops it from the epoll set
  MutexLock lock(&conns_mu_);
  conns_.erase(conn->id);
}

void Server::AcceptFrom(int listen_fd) {
  for (;;) {
    const int fd =
        accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept failure: retry next round
    }
    Connection* conn = nullptr;
    {
      MutexLock lock(&conns_mu_);
      if (conns_.size() < options_.max_connections) {
        const uint64_t id = next_conn_id_++;
        auto owned = std::make_unique<Connection>(
            id, fd,
            TokenBucket(options_.quota_qps, options_.quota_burst,
                        std::chrono::steady_clock::now()));
        conn = owned.get();
        conns_.emplace(id, std::move(owned));
      }
    }
    if (conn == nullptr) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.body = ErrorResponse::FromStatus(
          Status::ResourceExhausted("connection limit reached"));
      const std::string frame = EncodeFrame(
          MsgType::kError, 0, 0, EncodeResponsePayload(response));
      (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // From here on any serving thread may own the connection.
    if (!Arm(EPOLL_CTL_ADD, fd, conn, EPOLLIN | EPOLLONESHOT)) {
      CloseConnection(conn);
    }
  }
}

bool Server::FlushConnection(Connection* conn) {
  while (!conn->wbuf.empty()) {
    const std::string& front = conn->wbuf.front();
    const ssize_t n = send(conn->fd, front.data() + conn->woff,
                           front.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<size_t>(n);
      if (conn->woff == front.size()) {
        conn->wbuf.pop_front();
        conn->woff = 0;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    conn->broken = true;
    return false;
  }
  return true;
}

void Server::Reply(Connection* conn, MsgType type, uint32_t flags,
                   uint32_t request_id, std::string_view payload) {
  if (conn->broken) return;
  conn->wbuf.push_back(EncodeFrame(type, flags, request_id, payload));
  // Behind a blocked send, the new frame waits for EPOLLOUT in order.
  if (conn->wbuf.size() == 1) (void)FlushConnection(conn);
}

void Server::ReplyError(Connection* conn, uint32_t request_id,
                        const Status& status) {
  Response response;
  response.body = ErrorResponse::FromStatus(status);
  Reply(conn, MsgType::kError, 0, request_id,
        EncodeResponsePayload(response));
}

StatsResponse Server::BuildStats() const {
  StatsResponse s;
  const service::ServiceMetricsSnapshot m = bindings_.service->Metrics();
  s.submitted = m.submitted;
  s.rejected = m.rejected;
  s.completed = m.completed;
  s.failed = m.failed;
  s.deadline_exceeded = m.deadline_exceeded;
  s.degraded = m.degraded;
  s.variant_latency = m.variant_latency;

  const ResultCacheStats cache = cache_.Stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_insertions = cache.insertions;
  s.cache_evictions = cache.evictions;
  s.cache_invalidations = cache.invalidations;
  s.cache_bytes = cache.bytes;
  s.cache_entries = cache.entries;

  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  s.backpressure_rejections =
      backpressure_rejections_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

bool Server::Admit(Connection* conn, uint32_t request_id) {
  if (!conn->bucket.TryAcquire(std::chrono::steady_clock::now())) {
    quota_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, request_id,
               Status::ResourceExhausted("per-client quota exceeded"));
    return false;
  }
  if (conn->wbuf.size() >= options_.max_inflight_per_conn) {
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, request_id,
               Status::ResourceExhausted("too many in-flight requests"));
    return false;
  }
  return true;
}

void Server::HandleQueryRequest(Connection* conn, const FrameHeader& header,
                                Request request) {
  if (!Admit(conn, header.request_id)) return;

  const bool use_cache = options_.cache_bytes > 0;
  std::string key;
  if (use_cache) {
    key = CacheKey(request);
    std::string cached;  // 1 response-type byte + payload
    if (cache_.Lookup(key, &cached) && !cached.empty()) {
      const MsgType cached_type =
          static_cast<MsgType>(static_cast<uint8_t>(cached[0]));
      Reply(conn, cached_type, kFlagCached, header.request_id,
            std::string_view(cached).substr(1));
      return;
    }
  }

  service::Query query;
  if (const auto* window = std::get_if<WindowRequest>(&request.body)) {
    query = service::WindowQuery{window->window, window->contained_only};
  } else if (const auto* point = std::get_if<PointRequest>(&request.body)) {
    query = service::PointQuery{point->point};
  } else if (const auto* knn = std::get_if<KnnRequest>(&request.body)) {
    query = service::KnnQuery{knn->point, knn->k};
  } else if (const auto* join = std::get_if<JoinRequest>(&request.body)) {
    if (join->overlay != 0 || bindings_.overlay == nullptr) {
      ReplyError(conn, header.request_id,
                 Status::NotFound("no such overlay tree"));
      return;
    }
    query = service::JoinQuery{bindings_.overlay};
  } else if (const auto* psql = std::get_if<PsqlRequest>(&request.body)) {
    query = service::PsqlQuery{psql->text};
  } else if (auto* batch = std::get_if<BatchWindowRequest>(&request.body)) {
    query = service::BatchWindowQuery{std::move(batch->windows),
                                      batch->contained_only};
  } else {
    ReplyError(conn, header.request_id,
               Status::Internal("non-query request routed as query"));
    return;
  }

  service::QueryOptions query_options;
  query_options.timeout =
      std::chrono::microseconds(request.options.timeout_us);
  query_options.degraded_ok = request.options.degraded_ok;

  const StatusOr<service::QueryResult> outcome =
      bindings_.service->RunSync(query, query_options);
  if (!outcome.ok()) {
    ReplyError(conn, header.request_id, outcome.status());
    return;
  }
  const service::QueryResult& result = *outcome;
  const Response response = BuildQueryResponse(header.type, result);
  const std::string payload = EncodeResponsePayload(response);
  const MsgType response_type = ResponseMsgType(response);
  if (use_cache && !result.degraded && payload.size() < kMaxPayloadBytes) {
    // Cache only complete OK answers, with the response type prefixed
    // so a hit can replay the exact frame.
    std::string value;
    value.reserve(payload.size() + 1);
    value.push_back(static_cast<char>(response_type));
    value.append(payload);
    cache_.Insert(key, value);
  }
  Reply(conn, response_type, result.degraded ? kFlagDegraded : 0u,
        header.request_id, payload);
}

void Server::HandleWriteRequest(Connection* conn, const FrameHeader& header,
                                const Request& request) {
  if (!Admit(conn, header.request_id)) return;

  service::WriteOp op;
  if (const auto* ins = std::get_if<InsertRequest>(&request.body)) {
    op = service::InsertOp{ins->mbr,
                           storage::Rid{ins->rid.page_id, ins->rid.slot}};
  } else if (const auto* del = std::get_if<DeleteRequest>(&request.body)) {
    op = service::DeleteOp{del->mbr,
                           storage::Rid{del->rid.page_id, del->rid.slot}};
  } else if (const auto* upd = std::get_if<UpdateRequest>(&request.body)) {
    op = service::UpdateOp{
        upd->old_mbr, storage::Rid{upd->old_rid.page_id, upd->old_rid.slot},
        upd->new_mbr, storage::Rid{upd->new_rid.page_id, upd->new_rid.slot}};
  } else {
    ReplyError(conn, header.request_id,
               Status::Internal("non-write request routed as write"));
    return;
  }

  // The kOk frame is only built after ExecuteWrite returned, i.e. after
  // the WAL append + fsync: an acked write is durable.
  const Status outcome = bindings_.service->ExecuteWrite(op);
  if (!outcome.ok()) {
    ReplyError(conn, header.request_id, outcome);
    return;
  }
  Response response;
  response.body = OkResponse{};
  Reply(conn, MsgType::kOk, 0, header.request_id,
        EncodeResponsePayload(response));
}

void Server::HandleFrame(Connection* conn, const FrameHeader& header,
                         std::string_view payload) {
  if (!IsRequestType(header.type)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id,
               Status::InvalidArgument("response-typed frame sent to server"));
    conn->close_after_flush = true;
    return;
  }
  StatusOr<Request> decoded = DecodeRequestPayload(header.type, payload);
  if (!decoded.ok()) {
    // The frame itself was well-formed, so the stream is still in sync:
    // reply with a structured error and keep the connection.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    ReplyError(conn, header.request_id, decoded.status());
    return;
  }
  Request request = std::move(decoded).value();

  switch (header.type) {
    case MsgType::kPing: {
      Response response;
      response.body = PongResponse{};
      Reply(conn, MsgType::kPong, 0, header.request_id,
            EncodeResponsePayload(response));
      return;
    }
    case MsgType::kStats: {
      Response response;
      response.body = BuildStats();
      Reply(conn, MsgType::kStatsResult, 0, header.request_id,
            EncodeResponsePayload(response));
      return;
    }
    case MsgType::kSetFaults: {
      if (!options_.allow_admin || bindings_.fault_disk == nullptr) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("admin commands disabled"));
        return;
      }
      const auto& faults = std::get<SetFaultsRequest>(request.body);
      if (faults.transient_read_error_rate == 0.0 &&
          faults.read_bit_flip_rate == 0.0) {
        bindings_.fault_disk->ClearFaults();
      } else {
        storage::FaultPlan plan;
        plan.transient_read_error_rate = faults.transient_read_error_rate;
        plan.read_bit_flip_rate = faults.read_bit_flip_rate;
        bindings_.fault_disk->SetPlan(plan);
      }
      Response response;
      response.body = OkResponse{};
      Reply(conn, MsgType::kOk, 0, header.request_id,
            EncodeResponsePayload(response));
      return;
    }
    case MsgType::kInvalidate: {
      if (!options_.allow_admin) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("admin commands disabled"));
        return;
      }
      cache_.BumpEpoch();
      Response response;
      response.body = OkResponse{};
      Reply(conn, MsgType::kOk, 0, header.request_id,
            EncodeResponsePayload(response));
      return;
    }
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kUpdate: {
      if (!options_.allow_writes) {
        ReplyError(conn, header.request_id,
                   Status::NotSupported("writes disabled on this server"));
        return;
      }
      HandleWriteRequest(conn, header, request);
      return;
    }
    default:
      HandleQueryRequest(conn, header, std::move(request));
      return;
  }
}

bool Server::ReadConnection(Connection* conn) {
  bool peer_closed = false;
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // hard socket error
  }

  // Frames are consumed by offset and the buffer is compacted once, so a
  // burst of N frames moves its bytes once, not N times.
  const std::string_view bytes(conn->rbuf);
  size_t consumed = 0;
  while (bytes.size() - consumed >= kFrameHeaderSize &&
         !conn->close_after_flush && !conn->broken) {
    const std::string_view rest = bytes.substr(consumed);
    FrameHeader header;
    const Status header_status = DecodeFrameHeader(rest, &header);
    if (!header_status.ok()) {
      // Bad magic/version/type/length: the stream can never resync, so
      // answer with a structured error and close once it is flushed.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      ReplyError(conn, 0, header_status);
      conn->close_after_flush = true;
      break;
    }
    const size_t frame_size = kFrameHeaderSize + header.payload_len;
    if (rest.size() < frame_size) break;  // wait for the payload
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, header,
                rest.substr(kFrameHeaderSize, header.payload_len));
    consumed += frame_size;
  }
  conn->rbuf.erase(0, consumed);
  return !peer_closed;
}

bool Server::Serve(Connection* conn, uint32_t events) {
  MutexLock lock(&conn->mu);
  if (events & EPOLLERR) return false;
  if ((events & EPOLLOUT) && !FlushConnection(conn)) return false;
  // A drain stops reading, and nothing is re-armed: FinishDrain flushes
  // and closes what is left. Frames already read are answered in full.
  if (drain_requested_.load(std::memory_order_acquire)) return true;
  if ((events & EPOLLIN) && !ReadConnection(conn)) return false;
  if (conn->broken || (events & EPOLLHUP)) return false;
  if (conn->close_after_flush && conn->wbuf.empty()) return false;
  uint32_t want = EPOLLONESHOT;
  if (!conn->close_after_flush) want |= EPOLLIN;
  if (!conn->wbuf.empty()) want |= EPOLLOUT;
  // Re-armed under the lock: the next thread to serve the connection
  // takes the lock after this turn released it, which is the order the
  // thread-safety analysis and TSan check.
  return Arm(EPOLL_CTL_MOD, conn->fd, conn, want);
}

void Server::ServeLoop() {
  for (;;) {
    epoll_event ev;
    const int ready = epoll_wait(epoll_fd_, &ev, 1, /*timeout=*/-1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // epoll itself failed
    void* const tag = ev.data.ptr;
    if (tag == &wake_fd_) break;  // drain requested
    if (tag == &unix_listen_fd_ || tag == &tcp_listen_fd_) {
      // Stop accepting in a drain; FinishDrain closes the listener.
      if (drain_requested_.load(std::memory_order_acquire)) continue;
      const int listen_fd = *static_cast<const int*>(tag);
      AcceptFrom(listen_fd);
      (void)Arm(EPOLL_CTL_MOD, listen_fd, tag, EPOLLIN | EPOLLONESHOT);
      continue;
    }
    Connection* conn = static_cast<Connection*>(tag);
    if (!Serve(conn, ev.events)) CloseConnection(conn);
  }
  if (live_threads_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishDrain();
  }
}

void Server::FinishDrain() {
  // Every other serving thread has exited, so nothing else touches a
  // connection; the locks only keep the analysis informed.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(&conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [id, owned] : conns) {
    Connection* conn = owned.get();
    MutexLock lock(&conn->mu);
    if (!conn->wbuf.empty() && !conn->broken) {
      // Blocking sends: every request read before the drain is answered.
      const int flags = fcntl(conn->fd, F_GETFL, 0);
      if (flags >= 0) (void)fcntl(conn->fd, F_SETFL, flags & ~O_NONBLOCK);
      (void)FlushConnection(conn);
    }
    close(conn->fd);
  }
  CloseListeners();
  running_.store(false, std::memory_order_release);
}

}  // namespace pictdb::net
