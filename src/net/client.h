#ifndef PICTDB_NET_CLIENT_H_
#define PICTDB_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status_or.h"
#include "net/protocol.h"

namespace pictdb::net {

/// Blocking binary-protocol client: one connection, one outstanding
/// request at a time (Call writes a frame and reads exactly one response
/// frame). The tests and the repository benchmark speak the wire format
/// through it. Move-only; not thread-safe — use one Client per thread.
class Client {
 public:
  static StatusOr<Client> ConnectUnix(const std::string& path);
  static StatusOr<Client> ConnectTcp(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One decoded response plus its frame-header flags.
  struct Result {
    Response response;
    uint32_t flags = 0;
    uint32_t request_id = 0;

    bool cached() const { return (flags & kFlagCached) != 0; }
    bool degraded() const { return (flags & kFlagDegraded) != 0; }
  };

  /// Full round trip: encode, send, block for the matching response.
  /// A kError response comes back as a non-OK Status carrying the
  /// server's code and message; transport failures are IOError.
  StatusOr<Result> Call(const Request& request);

  // Typed conveniences over Call.
  StatusOr<Result> Window(const geom::Rect& window, bool contained_only,
                          const WireOptions& options = {});
  StatusOr<Result> Point(const geom::Point& point,
                         const WireOptions& options = {});
  StatusOr<Result> Knn(const geom::Point& point, uint32_t k,
                       const WireOptions& options = {});
  StatusOr<Result> Join(uint32_t overlay, const WireOptions& options = {});
  StatusOr<Result> Psql(const std::string& text,
                        const WireOptions& options = {});
  /// Many windows answered in one server-side descent; the response is
  /// a BatchHitsResponse with per_window[i] for windows[i].
  StatusOr<Result> BatchWindow(const std::vector<geom::Rect>& windows,
                               bool contained_only,
                               const WireOptions& options = {});
  Status Ping();
  StatusOr<StatsResponse> ServerStats();
  Status SetFaults(double transient_read_error_rate,
                   double read_bit_flip_rate);
  Status InvalidateCache();

  /// Write conveniences (the server must run with allow_writes). An OK
  /// return means the mutation is durable on the server (WAL fsynced)
  /// and visible to subsequent queries.
  Status Insert(const geom::Rect& mbr, const WireRid& rid);
  Status Delete(const geom::Rect& mbr, const WireRid& rid);
  Status Update(const geom::Rect& old_mbr, const WireRid& old_rid,
                const geom::Rect& new_mbr, const WireRid& new_rid);

  /// Cap how long a read may block (0 restores "forever"). Lets callers
  /// detect a dead server instead of hanging.
  Status SetRecvTimeout(std::chrono::milliseconds timeout);

  /// Escape hatches for protocol-robustness tests: ship arbitrary bytes
  /// and read one raw frame back.
  Status SendRaw(std::string_view bytes);
  StatusOr<std::string> ReadFrameRaw(FrameHeader* header_out);

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  Status WriteAll(std::string_view bytes);
  Status ReadExact(char* out, size_t n);

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
};

}  // namespace pictdb::net

#endif  // PICTDB_NET_CLIENT_H_
