// End-to-end tests of the network serving tier: a real epoll server
// over a PACK-built tree, exercised through the blocking client. Covers
// query round trips on Unix and TCP sockets, the result cache's
// byte-identical replay, quota / in-flight / connection-limit
// backpressure, admin fault episodes, cache invalidation, protocol-error
// handling on a live socket, and the SIGTERM graceful-drain path.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "wal/durable_tree.h"
#include "workload/generators.h"

namespace pictdb::net {
namespace {

using geom::Point;
using geom::Rect;

constexpr size_t kObjects = 4000;

std::string SockPath(const std::string& name) {
  return ::testing::TempDir() + "pictdb_" + name + "_" +
         std::to_string(getpid()) + ".sock";
}

/// PACK-built tree (behind a fault-injection disk armed with rate 0) and
/// a small overlay tree, served by a QueryService. Each test constructs
/// its own Server so it can pick quota/cache/admin options.
class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest()
      : disk_(512),
        fault_disk_(&disk_, storage::FaultPlan{}),
        pool_(&fault_disk_, /*capacity=*/256, /*shards=*/4) {
    Random rng(101);
    points_ =
        workload::UniformPoints(&rng, kObjects, workload::PaperFrame());
    std::vector<storage::Rid> rids;
    rids.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
    }
    auto tree = rtree::RTree::Create(&pool_);
    PICTDB_CHECK(tree.ok());
    tree_ = std::make_unique<rtree::RTree>(std::move(tree).value());
    PICTDB_CHECK_OK(pack::Pack(
        tree_.get(), pack::MakeLeafEntries(points_, rids)));

    // Overlay tree of small regions (not points — a point-point join
    // would find no intersecting pairs).
    Random overlay_rng(202);
    overlay_points_ =
        workload::UniformPoints(&overlay_rng, 400, workload::PaperFrame());
    std::vector<Rect> overlay_rects;
    overlay_rects.reserve(overlay_points_.size());
    for (const Point& p : overlay_points_) {
      overlay_rects.push_back(Rect::FromCenterHalfExtent(p.x, 4, p.y, 4));
    }
    std::vector<storage::Rid> overlay_rids;
    overlay_rids.reserve(overlay_rects.size());
    for (size_t i = 0; i < overlay_rects.size(); ++i) {
      overlay_rids.push_back(
          storage::Rid{static_cast<storage::PageId>(i), 1});
    }
    auto overlay = rtree::RTree::Create(&pool_);
    PICTDB_CHECK(overlay.ok());
    overlay_ = std::make_unique<rtree::RTree>(std::move(overlay).value());
    PICTDB_CHECK_OK(pack::Pack(
        overlay_.get(),
        pack::MakeLeafEntries(overlay_rects, overlay_rids)));

    service::ServiceOptions service_options;
    service_options.num_threads = 4;
    service_ = std::make_unique<service::QueryService>(
        tree_.get(), /*executor=*/nullptr, service_options);
  }

  Server::Bindings Bindings() {
    Server::Bindings b;
    b.service = service_.get();
    b.overlay = overlay_.get();
    b.fault_disk = &fault_disk_;
    return b;
  }

  /// Rids (page ids = point indices) of the points inside `window`,
  /// sorted.
  std::vector<uint32_t> BruteForceWindow(const Rect& window) const {
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (window.Contains(points_[i])) ids.push_back(static_cast<uint32_t>(i));
    }
    return ids;
  }

  size_t BruteForceWindowCount(const Rect& window) const {
    size_t count = 0;
    for (const Point& p : points_) {
      if (window.Contains(p)) ++count;
    }
    return count;
  }

  storage::InMemoryDiskManager disk_;
  storage::FaultInjectionDiskManager fault_disk_;
  storage::BufferPool pool_;
  std::unique_ptr<rtree::RTree> tree_;
  std::unique_ptr<rtree::RTree> overlay_;
  std::vector<Point> points_;
  std::vector<Point> overlay_points_;
  std::unique_ptr<service::QueryService> service_;
};

TEST_F(NetServerTest, PingAndQueriesOverUnixSocket) {
  ServerOptions options;
  options.unix_path = SockPath("basic");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  const Rect window = Rect::FromCenterHalfExtent(500, 80, 500, 80);
  auto window_result = client->Window(window, /*contained_only=*/false);
  ASSERT_TRUE(window_result.ok()) << window_result.status().ToString();
  const auto& hits = std::get<HitsResponse>(window_result->response.body);
  EXPECT_EQ(hits.hits.size(), BruteForceWindowCount(window));
  EXPECT_FALSE(window_result->cached());
  EXPECT_FALSE(window_result->degraded());
  EXPECT_GT(hits.stats.nodes_visited, 0u);

  // Point containment: an existing point is found, a far-away one is not.
  auto present = client->Point(points_[7]);
  ASSERT_TRUE(present.ok());
  EXPECT_GE(std::get<HitsResponse>(present->response.body).hits.size(), 1u);
  auto absent = client->Point(Point{-5000.0, -5000.0});
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(std::get<HitsResponse>(absent->response.body).hits.size(), 0u);

  // kNN: k results, sorted by distance.
  auto knn = client->Knn(Point{400.0, 600.0}, 5);
  ASSERT_TRUE(knn.ok());
  const auto& neighbors = std::get<NeighborsResponse>(knn->response.body);
  ASSERT_EQ(neighbors.neighbors.size(), 5u);
  for (size_t i = 1; i < neighbors.neighbors.size(); ++i) {
    EXPECT_LE(neighbors.neighbors[i - 1].distance,
              neighbors.neighbors[i].distance);
  }

  // Join against the server-hosted overlay tree.
  auto join = client->Join(/*overlay=*/0);
  ASSERT_TRUE(join.ok());
  EXPECT_GT(std::get<JoinResponse>(join->response.body).pairs, 0u);
  auto missing_overlay = client->Join(/*overlay=*/3);
  EXPECT_FALSE(missing_overlay.ok());
  EXPECT_TRUE(missing_overlay.status().IsNotFound())
      << missing_overlay.status().ToString();

  // PSQL without an executor surfaces the service's error over the wire.
  auto psql = client->Psql("select * from cities");
  EXPECT_FALSE(psql.ok());

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GT(stats.frames_received, 0u);
  server.Stop();
}

std::vector<uint32_t> SortedPages(const std::vector<WireHit>& hits) {
  std::vector<uint32_t> ids;
  ids.reserve(hits.size());
  for (const WireHit& hit : hits) ids.push_back(hit.rid.page_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(NetServerTest, ConcurrentClientsGetBruteForceAnswers) {
  // Two serving threads, eight clients: every connection is served by
  // whichever thread is idle, and every answer must still be exact.
  service::ServiceOptions service_options;
  service_options.num_threads = 2;
  service::QueryService svc(tree_.get(), nullptr, service_options);
  Server::Bindings bindings = Bindings();
  bindings.service = &svc;
  ServerOptions options;
  options.unix_path = SockPath("concurrent");
  Server server(bindings, options);
  ASSERT_TRUE(server.Start().ok());

  uint64_t join_pairs = 0;
  for (const Point& o : overlay_points_) {
    const Rect region = Rect::FromCenterHalfExtent(o.x, 4, o.y, 4);
    for (const Point& p : points_) join_pairs += region.Contains(p) ? 1 : 0;
  }

  constexpr int kClients = 8;
  constexpr int kRequests = 200;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string& failure = failures[c];
      auto client = Client::ConnectUnix(options.unix_path);
      if (!client.ok()) {
        failure = client.status().ToString();
        return;
      }
      Random rng(1000 + c);
      const auto random_window = [&] {
        return Rect::FromCenterHalfExtent(rng.UniformDouble(0, 1000),
                                          rng.UniformDouble(5, 60),
                                          rng.UniformDouble(0, 1000),
                                          rng.UniformDouble(5, 60));
      };
      for (int i = 0; i < kRequests && failure.empty(); ++i) {
        const std::string where = "client " + std::to_string(c) +
                                  " request " + std::to_string(i) + ": ";
        switch (i % 5) {
          case 0: {
            const Rect window = random_window();
            auto r = client->Window(window, false);
            if (!r.ok()) {
              failure = where + r.status().ToString();
            } else if (SortedPages(std::get<HitsResponse>(r->response.body)
                                       .hits) != BruteForceWindow(window)) {
              failure = where + "window hits differ from brute force";
            }
            break;
          }
          case 1: {
            const Point p = points_[rng.Uniform(points_.size())];
            auto r = client->Point(p);
            size_t expected = 0;
            for (const Point& q : points_) expected += q == p ? 1 : 0;
            if (!r.ok()) {
              failure = where + r.status().ToString();
            } else if (std::get<HitsResponse>(r->response.body).hits.size() !=
                       expected) {
              failure = where + "point hits differ from brute force";
            }
            break;
          }
          case 2: {
            const Point p{rng.UniformDouble(0, 1000),
                          rng.UniformDouble(0, 1000)};
            constexpr uint32_t kK = 7;
            auto r = client->Knn(p, kK);
            std::vector<double> expected;
            for (const Point& q : points_) {
              expected.push_back(geom::Distance(p, q));
            }
            std::sort(expected.begin(), expected.end());
            expected.resize(kK);
            if (!r.ok()) {
              failure = where + r.status().ToString();
              break;
            }
            const auto& got =
                std::get<NeighborsResponse>(r->response.body).neighbors;
            if (got.size() != kK) {
              failure = where + "knn returned the wrong count";
              break;
            }
            for (size_t k = 0; k < kK; ++k) {
              if (std::abs(got[k].distance - expected[k]) > 1e-9) {
                failure = where + "knn distances differ from brute force";
              }
            }
            break;
          }
          case 3: {
            std::vector<Rect> windows;
            for (int w = 0; w < 4; ++w) windows.push_back(random_window());
            auto r = client->BatchWindow(windows, false);
            if (!r.ok()) {
              failure = where + r.status().ToString();
              break;
            }
            const auto& per_window =
                std::get<BatchHitsResponse>(r->response.body).per_window;
            if (per_window.size() != windows.size()) {
              failure = where + "batch returned the wrong window count";
              break;
            }
            for (size_t w = 0; w < windows.size(); ++w) {
              if (SortedPages(per_window[w].hits) !=
                  BruteForceWindow(windows[w])) {
                failure = where + "batch hits differ from brute force";
              }
            }
            break;
          }
          default: {
            auto r = client->Join(/*overlay=*/0);
            if (!r.ok()) {
              failure = where + r.status().ToString();
            } else if (std::get<JoinResponse>(r->response.body).pairs !=
                       join_pairs) {
              failure = where + "join pair count differs from brute force";
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << failures[c];
  }
  EXPECT_EQ(server.Stats().connections_accepted,
            static_cast<uint64_t>(kClients));
  EXPECT_EQ(svc.Metrics().completed,
            static_cast<uint64_t>(kClients * kRequests));
  server.Stop();
}

TEST_F(NetServerTest, PipelinedBurstBeyondInflightBoundIsAnsweredInOrder) {
  ServerOptions options;
  options.unix_path = SockPath("burst");
  ASSERT_EQ(options.max_inflight_per_conn, 64u);
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  // 100 window frames in one write: more than the in-flight bound, but
  // each is answered as soon as it is read, so none is refused.
  constexpr uint32_t kFrames = 100;
  std::vector<Rect> windows;
  std::string burst;
  for (uint32_t i = 0; i < kFrames; ++i) {
    windows.push_back(Rect::FromCenterHalfExtent(10.0 * i, 20, 500, 20));
    Request request;
    request.body = WindowRequest{windows.back(), false};
    burst += EncodeFrame(MsgType::kWindow, 0, /*request_id=*/1000 + i,
                         EncodeRequestPayload(request));
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());
  for (uint32_t i = 0; i < kFrames; ++i) {
    FrameHeader header;
    auto payload = client->ReadFrameRaw(&header);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    ASSERT_EQ(header.request_id, 1000 + i);
    auto decoded = DecodeResponsePayload(header.type, *payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(header.type, MsgType::kHits)
        << std::get<ErrorResponse>(decoded->body).ToStatus().ToString();
    EXPECT_EQ(SortedPages(std::get<HitsResponse>(decoded->body).hits),
              BruteForceWindow(windows[i]));
  }
  EXPECT_EQ(server.Stats().backpressure_rejections, 0u);
  server.Stop();
}

TEST_F(NetServerTest, TcpLoopbackListenerWorks) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  auto client = Client::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Rect window = Rect::FromCenterHalfExtent(300, 50, 700, 50);
  auto result = client->Window(window, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<HitsResponse>(result->response.body).hits.size(),
            BruteForceWindowCount(window));
  server.Stop();
}

TEST_F(NetServerTest, RepeatedWindowIsServedFromCacheByteIdentically) {
  ServerOptions options;
  options.unix_path = SockPath("cache");
  options.cache_bytes = 1 << 20;
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const Rect window = Rect::FromCenterHalfExtent(250, 60, 250, 60);

  auto first = client->Window(window, false);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cached());

  // Different deadline, same canonical question: still a hit.
  WireOptions wire_options;
  wire_options.timeout_us = 5'000'000;
  auto second = client->Window(window, false, wire_options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cached());

  const auto& hits1 = std::get<HitsResponse>(first->response.body);
  const auto& hits2 = std::get<HitsResponse>(second->response.body);
  // Byte-identical replay: even the execution stats (latency included)
  // are the original response's, verbatim.
  EXPECT_EQ(hits1.stats, hits2.stats);
  ASSERT_EQ(hits1.hits.size(), hits2.hits.size());
  for (size_t i = 0; i < hits1.hits.size(); ++i) {
    EXPECT_EQ(hits1.hits[i].rid, hits2.hits[i].rid);
  }

  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->cache_hits, 1u);
  EXPECT_GE(stats->cache_insertions, 1u);
  EXPECT_EQ(server.Stats().cache_hits, stats->cache_hits);
  server.Stop();
}

TEST_F(NetServerTest, AdminInvalidateBumpsEpochAndDropsCachedEntries) {
  ServerOptions options;
  options.unix_path = SockPath("invalidate");
  options.cache_bytes = 1 << 20;
  options.allow_admin = true;
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const Rect window = Rect::FromCenterHalfExtent(600, 40, 400, 40);
  ASSERT_TRUE(client->Window(window, false).ok());
  auto warm = client->Window(window, false);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached());

  ASSERT_TRUE(client->InvalidateCache().ok());

  auto after = client->Window(window, false);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cached());  // epoch bump made the entry stale
  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->cache_invalidations, 1u);
  server.Stop();
}

TEST_F(NetServerTest, QuotaRejectsBeyondBurstWithResourceExhausted) {
  ServerOptions options;
  options.unix_path = SockPath("quota");
  options.quota_qps = 0.001;  // effectively no refill within the test
  options.quota_burst = 3;
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  size_t ok_count = 0, rejected = 0;
  for (int i = 0; i < 8; ++i) {
    // Distinct windows so the (disabled anyway) cache cannot interfere.
    const Rect window = Rect::FromCenterHalfExtent(100 + 10 * i, 5, 100, 5);
    auto result = client->Window(window, false);
    if (result.ok()) {
      ++ok_count;
    } else {
      EXPECT_TRUE(result.status().IsResourceExhausted())
          << result.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(ok_count, 3u);
  EXPECT_EQ(rejected, 5u);
  EXPECT_EQ(server.Stats().quota_rejections, 5u);
  // Ping is not a query: it bypasses the quota entirely.
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST_F(NetServerTest, InflightBoundRejectsWithResourceExhausted) {
  ServerOptions options;
  options.unix_path = SockPath("inflight");
  options.max_inflight_per_conn = 0;  // degenerate bound: reject all
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  auto result = client->Window(Rect(0, 0, 10, 10), false);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(server.Stats().backpressure_rejections, 1u);
  server.Stop();
}

TEST_F(NetServerTest, ConnectionLimitRejectsExtraClients) {
  ServerOptions options;
  options.unix_path = SockPath("connlimit");
  options.max_connections = 1;
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto first = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Ping().ok());  // fully admitted

  auto second = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(second.ok());  // accept() succeeds, then the server rejects
  FrameHeader header;
  auto greeting = second->ReadFrameRaw(&header);
  if (greeting.ok()) {
    EXPECT_EQ(header.type, MsgType::kError);
    auto decoded = DecodeResponsePayload(header.type, *greeting);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(std::get<ErrorResponse>(decoded->body)
                    .ToStatus()
                    .IsResourceExhausted());
  }
  // Either way the rejected socket is closed and counted.
  EXPECT_FALSE(second->Ping().ok());
  EXPECT_EQ(server.Stats().connections_rejected, 1u);

  // The admitted client is unaffected.
  EXPECT_TRUE(first->Ping().ok());
  server.Stop();
}

TEST_F(NetServerTest, AdminFaultEpisodeDegradesThenRecovers) {
  ServerOptions options;
  options.unix_path = SockPath("faults");
  options.allow_admin = true;
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  // Full-frame window: touches every leaf page, far more than the pool
  // can hold, so disk reads (and injected faults) are guaranteed.
  const Rect window = workload::PaperFrame();
  const size_t exact = BruteForceWindowCount(window);

  ASSERT_TRUE(client->SetFaults(/*transient_read_error_rate=*/0.5,
                                /*read_bit_flip_rate=*/0.0)
                  .ok());
  WireOptions degraded_ok;
  degraded_ok.degraded_ok = true;
  bool saw_trouble = false;
  for (int i = 0; i < 20; ++i) {
    auto result = client->Window(window, false, degraded_ok);
    if (!result.ok()) {
      saw_trouble = true;  // fault before degraded mode could engage
      continue;
    }
    const auto& hits = std::get<HitsResponse>(result->response.body);
    if (result->degraded()) {
      saw_trouble = true;
      EXPECT_TRUE(hits.stats.degraded);
      EXPECT_LE(hits.hits.size(), exact);  // subset, never invention
    } else {
      EXPECT_EQ(hits.hits.size(), exact);
    }
  }
  EXPECT_TRUE(saw_trouble);  // 40% read faults cannot pass unnoticed

  // End the episode: back to exact answers.
  ASSERT_TRUE(client->SetFaults(0.0, 0.0).ok());
  auto healed = client->Window(window, false);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed->degraded());
  EXPECT_EQ(std::get<HitsResponse>(healed->response.body).hits.size(),
            exact);
  server.Stop();
}

TEST_F(NetServerTest, AdminCommandsDisabledByDefault) {
  ServerOptions options;
  options.unix_path = SockPath("noadmin");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const Status faults = client->SetFaults(0.5, 0.0);
  EXPECT_FALSE(faults.ok());
  const Status invalidate = client->InvalidateCache();
  EXPECT_FALSE(invalidate.ok());
  server.Stop();
}

TEST_F(NetServerTest, GarbageBytesGetStructuredErrorThenClose) {
  ServerOptions options;
  options.unix_path = SockPath("garbage");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw("this is definitely not a frame--").ok());
  FrameHeader header;
  auto reply = client->ReadFrameRaw(&header);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(header.type, MsgType::kError);
  // After the structured error the server closes the unsyncable stream.
  EXPECT_FALSE(client->Ping().ok());
  EXPECT_GE(server.Stats().protocol_errors, 1u);

  // The server itself is fine: a fresh client works.
  auto fresh = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Ping().ok());
  server.Stop();
}

TEST_F(NetServerTest, TruncatedFrameThenDisconnectLeavesServerAlive) {
  ServerOptions options;
  options.unix_path = SockPath("truncated");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  {
    auto client = Client::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok());
    Request ping;
    ping.body = PingRequest{};
    const std::string frame =
        EncodeFrame(MsgType::kWindow, 0, 9, EncodeRequestPayload(ping));
    // Ship only half the frame, then vanish mid-message.
    ASSERT_TRUE(client->SendRaw(
                          std::string_view(frame).substr(0, frame.size() / 2))
                    .ok());
  }  // destructor closes the socket

  auto fresh = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Ping().ok());
  server.Stop();
}

TEST_F(NetServerTest, MalformedPayloadGetsErrorButKeepsConnection) {
  ServerOptions options;
  options.unix_path = SockPath("badpayload");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  // Well-formed frame, garbage payload: the stream stays in sync, so the
  // server answers with an error and keeps serving this connection.
  const std::string frame = EncodeFrame(MsgType::kWindow, 0, 11, "junk");
  ASSERT_TRUE(client->SendRaw(frame).ok());
  FrameHeader header;
  auto reply = client->ReadFrameRaw(&header);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(header.type, MsgType::kError);
  EXPECT_EQ(header.request_id, 11u);
  EXPECT_TRUE(client->Ping().ok());  // same connection still serves
  EXPECT_GE(server.Stats().protocol_errors, 1u);
  server.Stop();
}

TEST_F(NetServerTest, SigtermTriggersGracefulDrain) {
  ServerOptions options;
  options.unix_path = SockPath("sigterm");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());
  Server::InstallSignalHandlers(&server);

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  auto before = client->Window(Rect(0, 0, 100, 100), false);
  ASSERT_TRUE(before.ok());

  ASSERT_EQ(raise(SIGTERM), 0);
  server.Join();  // the drain path exits the serving thread
  EXPECT_FALSE(server.running());

  // Served work was answered; new work finds the listener gone.
  ASSERT_TRUE(client->SetRecvTimeout(std::chrono::milliseconds(500)).ok());
  EXPECT_FALSE(client->Ping().ok());
  auto late = Client::ConnectUnix(options.unix_path);
  EXPECT_FALSE(late.ok());

  // Stats survive the drain for the shutdown report.
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GT(stats.frames_received, 0u);
  Server::InstallSignalHandlers(nullptr);
}

TEST_F(NetServerTest, ProgrammaticDrainAnswersInflightBeforeExit) {
  ServerOptions options;
  options.unix_path = SockPath("drain");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto result = client->Knn(Point{10.0 * i, 20.0 * i}, 3);
    ASSERT_TRUE(result.ok());
  }
  server.RequestDrain();
  server.Join();
  EXPECT_FALSE(server.running());
  // Drain is idempotent.
  server.Stop();
}

TEST_F(NetServerTest, WritesAreDisabledByDefault) {
  ServerOptions options;
  options.unix_path = SockPath("nowrites");
  Server server(Bindings(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const Status status =
      client->Insert(Rect(10, 10, 11, 11), WireRid{9999, 0});
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  // The connection survives the refusal.
  EXPECT_TRUE(client->Ping().ok());
  server.Stop();
}

TEST_F(NetServerTest, WritesCommitAndInvalidateCachedResults) {
  // A server over a WAL-backed durable tree: committed writes must both
  // change query results and (through the commit hook) drop every
  // cached response — a stale cache replay here would be a wrong
  // answer, not a performance bug.
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 1024);
  auto created = wal::DurableRTree::Create(&pool);
  ASSERT_TRUE(created.ok());
  auto durable = std::move(created).value();
  std::vector<rtree::Entry> seed;
  for (size_t i = 0; i < 100; ++i) {
    rtree::Entry e;
    const double x = 10.0 * static_cast<double>(i);
    e.mbr = Rect(x, x, x + 1, x + 1);
    e.payload = rtree::Entry::PayloadFromRid(
        storage::Rid{static_cast<storage::PageId>(i), 0});
    seed.push_back(e);
  }
  ASSERT_TRUE(durable->BulkLoad(seed).ok());

  service::ServiceOptions service_options;
  service_options.num_threads = 2;
  service::QueryService svc(&durable->tree(), nullptr, service_options);
  svc.BindWriter(durable.get());

  ServerOptions options;
  options.unix_path = SockPath("writes");
  options.cache_bytes = 1 << 20;
  options.allow_writes = true;
  Server::Bindings bindings;
  bindings.service = &svc;
  Server server(bindings, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  const Rect window(0, 0, 55, 55);  // covers seed entries 0..5
  auto first = client->Window(window, false);
  ASSERT_TRUE(first.ok());
  const size_t before =
      std::get<HitsResponse>(first->response.body).hits.size();
  EXPECT_EQ(before, 6u);
  auto warm = client->Window(window, false);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached());

  // Insert into the window: the ack means the WAL record is fsynced.
  const WireRid new_rid{5000, 0};
  ASSERT_TRUE(client->Insert(Rect(20, 30, 21, 31), new_rid).ok());

  auto after = client->Window(window, false);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cached());  // commit hook bumped the epoch
  EXPECT_EQ(std::get<HitsResponse>(after->response.body).hits.size(),
            before + 1);

  // Delete it again; a further query drops back to the original count.
  ASSERT_TRUE(client->Delete(Rect(20, 30, 21, 31), new_rid).ok());
  auto gone = client->Window(window, false);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(std::get<HitsResponse>(gone->response.body).hits.size(), before);

  // Update moves seed entry 0 (at [0,0]x[1,1]) out of the window.
  ASSERT_TRUE(client
                  ->Update(Rect(0, 0, 1, 1), WireRid{0, 0},
                           Rect(9000, 9000, 9001, 9001), WireRid{0, 0})
                  .ok());
  auto moved = client->Window(window, false);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(std::get<HitsResponse>(moved->response.body).hits.size(),
            before - 1);

  // Precondition misses surface as NotFound over the wire, and do NOT
  // invalidate the cache (nothing committed).
  auto cached_again = client->Window(window, false);
  ASSERT_TRUE(cached_again.ok());
  EXPECT_TRUE(cached_again->cached());
  const Status miss =
      client->Delete(Rect(1, 2, 3, 4), WireRid{12345, 0});
  EXPECT_TRUE(miss.IsNotFound()) << miss.ToString();
  auto still_cached = client->Window(window, false);
  ASSERT_TRUE(still_cached.ok());
  EXPECT_TRUE(still_cached->cached());

  server.Stop();
  // Everything acked above is durable: reopen after a simulated crash
  // is covered in wal_crash_test; here we just close cleanly.
  EXPECT_TRUE(durable->Close().ok());
}

}  // namespace
}  // namespace pictdb::net
