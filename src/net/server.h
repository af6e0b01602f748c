#ifndef PICTDB_NET_SERVER_H_
#define PICTDB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/result_cache.h"
#include "net/token_bucket.h"
#include "service/query_service.h"
#include "storage/fault_injection.h"

namespace pictdb::net {

struct ServerOptions {
  /// Unix-domain listener path (empty = no UDS listener). The file is
  /// unlinked and rebound on Start.
  std::string unix_path;
  /// TCP listener: -1 = no TCP, 0 = ephemeral (read back via tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";

  /// Concurrent client connections; one past the limit is greeted with a
  /// ResourceExhausted error frame and closed.
  size_t max_connections = 64;

  /// Per-connection token-bucket quota (0 = unlimited). Requests beyond
  /// the bucket get a ResourceExhausted reply and cost nothing.
  double quota_qps = 0.0;
  double quota_burst = 16.0;

  /// Per-connection in-flight request bound: the backpressure path.
  /// Requests past it get ResourceExhausted (the binary protocol's
  /// "429").
  size_t max_inflight_per_conn = 64;

  /// Hot-window result cache budget in payload bytes (0 = disabled).
  size_t cache_bytes = 0;
  size_t cache_shards = 8;

  /// Honor kSetFaults / kInvalidate admin messages (off by default:
  /// fault injection over the wire is a test/soak facility).
  bool allow_admin = false;

  /// Honor kInsert / kDelete / kUpdate write messages (off by default;
  /// requires a wal::DurableRTree bound to the service via BindWriter).
  /// Every committed write bumps the result-cache epoch through the
  /// service commit hook, which Start() installs when this is set.
  bool allow_writes = false;
};

/// Plain-value image of the serving-tier counters.
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;
  uint64_t quota_rejections = 0;
  uint64_t backpressure_rejections = 0;
  uint64_t cache_hits = 0;
};

/// epoll(7)-driven binary-protocol front door over one QueryService.
///
/// Threading model: run to completion. The service's `num_threads`
/// serving threads share one epoll set in which every connection is
/// armed EPOLLIN | EPOLLONESHOT, so the kernel hands a ready connection
/// to exactly one idle thread. That thread reads and decodes its frames,
/// runs each query on its own stack (QueryService::RunSync, or
/// ExecuteWrite for writes), sends each response as soon as it is
/// encoded, and re-arms the connection; only a send that would block
/// leaves bytes in the connection's write buffer, and the re-arm then
/// adds EPOLLOUT. Each epoll_wait takes one event, so any idle thread
/// serves any connection. A per-connection mutex, held while a thread
/// serves the connection and re-arms it, makes the one-shot hand-off
/// visible to the thread-safety analysis and to TSan.
///
/// Admission layering (first refusal wins, every refusal is a structured
/// ResourceExhausted reply):
///   1. connection limit (at accept)
///   2. per-connection token-bucket quota
///   3. per-connection in-flight bound: requests read whose responses
///      are not fully written
/// The number of serving threads bounds concurrency, and requests not
/// yet read wait in the kernel's socket buffers.
///
/// Graceful drain (SIGINT/SIGTERM via InstallSignalHandlers, or
/// RequestDrain): one eventfd write wakes every serving thread; each
/// finishes the frames it already read, stops reading and accepting,
/// and exits. The last thread out flushes every pending response and
/// closes all sockets. Stats survive for DumpStats.
class Server {
 public:
  /// Everything the server serves. `service` is required and must
  /// outlive the server; `overlay` (join target, overlay id 0) and
  /// `fault_disk` (admin fault episodes) are optional.
  struct Bindings {
    service::QueryService* service = nullptr;
    const rtree::RTree* overlay = nullptr;
    storage::FaultInjectionDiskManager* fault_disk = nullptr;
  };

  Server(const Bindings& bindings, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the serving threads.
  Status Start();

  /// Begin graceful drain. Async-signal-safe (an atomic exchange and
  /// one eventfd write), so the signal handler calls it too.
  void RequestDrain();

  /// Wait for every serving thread to exit (after a drain).
  void Join();

  /// RequestDrain + Join. Idempotent; also run by the destructor.
  void Stop();

  /// Route SIGINT/SIGTERM to this server's RequestDrain. Pass nullptr to
  /// detach before the server dies.
  static void InstallSignalHandlers(Server* server);

  /// Actual TCP port (after Start with tcp_port=0) or -1.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStatsSnapshot Stats() const;
  const ResultCache& cache() const { return cache_; }
  /// Whole-cache invalidation (epoch bump). Committed writes reach this
  /// through the service commit hook; kInvalidate is the manual override.
  void InvalidateCache() { cache_.BumpEpoch(); }

  /// One-stop shutdown report: serving-tier counters, per-variant
  /// latency summaries, and cache counters, to `out` (the drain path
  /// prints this to stderr).
  void DumpStats(std::FILE* out) const;

 private:
  /// Per-client state. EPOLLONESHOT hands a connection to one serving
  /// thread at a time, and that thread holds `mu` for its whole turn.
  struct Connection {
    Connection(uint64_t id_in, int fd_in, const TokenBucket& bucket_in)
        : id(id_in), fd(fd_in), bucket(bucket_in) {}

    const uint64_t id;
    const int fd;
    Mutex mu;
    std::string rbuf GUARDED_BY(mu);  // frame reassembly buffer
    /// Encoded responses a send would have blocked on; its length is the
    /// connection's in-flight count.
    std::deque<std::string> wbuf GUARDED_BY(mu);
    size_t woff GUARDED_BY(mu) = 0;  // bytes of wbuf.front() already sent
    TokenBucket bucket GUARDED_BY(mu);
    bool close_after_flush GUARDED_BY(mu) = false;
    bool broken GUARDED_BY(mu) = false;  // a send failed: peer gone
  };

  void ServeLoop();  // one serving thread
  void AcceptFrom(int listen_fd) EXCLUDES(conns_mu_);
  /// Serve one ready connection and re-arm it; false = close it.
  bool Serve(Connection* conn, uint32_t events) EXCLUDES(conn->mu);
  /// Read what the socket holds and handle every complete frame; false
  /// when the peer closed or the socket failed.
  bool ReadConnection(Connection* conn) REQUIRES(conn->mu);
  /// Send wbuf until it is empty or a send would block; false when the
  /// peer is gone.
  bool FlushConnection(Connection* conn) REQUIRES(conn->mu);
  void HandleFrame(Connection* conn, const FrameHeader& header,
                   std::string_view payload) REQUIRES(conn->mu);
  /// Quota and in-flight admission for a query or write; a refusal has
  /// been answered when this returns false.
  bool Admit(Connection* conn, uint32_t request_id) REQUIRES(conn->mu);
  void HandleQueryRequest(Connection* conn, const FrameHeader& header,
                          Request request) REQUIRES(conn->mu);
  void HandleWriteRequest(Connection* conn, const FrameHeader& header,
                          const Request& request) REQUIRES(conn->mu);
  /// Encode one response and send it now; only what a send would block
  /// on stays queued in wbuf.
  void Reply(Connection* conn, MsgType type, uint32_t flags,
             uint32_t request_id, std::string_view payload)
      REQUIRES(conn->mu);
  void ReplyError(Connection* conn, uint32_t request_id,
                  const Status& status) REQUIRES(conn->mu);
  StatsResponse BuildStats() const;
  bool Arm(int op, int fd, void* tag, uint32_t events);
  void CloseListeners();
  void CloseConnection(Connection* conn) EXCLUDES(conns_mu_);
  /// Run by the last serving thread to exit: flush, close, unlink.
  void FinishDrain() EXCLUDES(conns_mu_);

  Bindings bindings_;
  ServerOptions options_;
  ResultCache cache_;

  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: readable once a drain is requested

  mutable Mutex conns_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_
      GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ GUARDED_BY(conns_mu_) = 1;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  std::atomic<size_t> live_threads_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> quota_rejections_{0};
  std::atomic<uint64_t> backpressure_rejections_{0};

  std::vector<std::thread> threads_;  // last: uses every member above
};

}  // namespace pictdb::net

#endif  // PICTDB_NET_SERVER_H_
