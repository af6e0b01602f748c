// Runs the real pictdb_server binary as a child process over a
// file-backed tree that does not fit its buffer pool, so queries read
// the page file. Every query kind (window, point, kNN, join, batch
// window, PSQL) goes over the wire from several client threads and is
// checked against a brute-force oracle: before, during and after an
// admin fault episode. A SIGTERM must then drain the server to exit 0.
// With the default pool the page file must still hold the tree once the
// server is READY. Malformed numeric flags must be refused before
// anything is built.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "common/logging.h"
#include "common/random.h"
#include "net/client.h"
#include "net/protocol.h"
#include "psql/executor.h"
#include "rel/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"
#include "workload/serving_dataset.h"
#include "workload/us_catalog.h"

namespace pictdb {
namespace {

using check::DiffVerdict;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr uint64_t kSeed = 4242;  // pictdb_server's default --seed
constexpr size_t kObjects = 10000;
constexpr size_t kOverlay = 300;
// The 10k-point tree spans about a thousand 512-byte pages.
constexpr size_t kPoolPages = 64;
constexpr size_t kClients = 3;
constexpr milliseconds kTimeout{20000};

std::string MakeTempDir() {
  std::string dir = ::testing::TempDir() + "pictdb_proc_XXXXXX";
  PICTDB_CHECK(mkdtemp(dir.data()) != nullptr);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// One pictdb_server child: stdout on a pipe (it announces READY there),
/// stderr into a file. Killed on destruction if it is still running.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& flags,
                const std::string& stderr_path) {
    std::vector<std::string> args = {PICTDB_SERVER_BIN};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int out[2];
    PICTDB_CHECK(pipe(out) == 0);
    pid_ = fork();
    PICTDB_CHECK(pid_ >= 0);
    if (pid_ == 0) {
      const int err = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
      dup2(out[1], STDOUT_FILENO);
      dup2(err, STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    close(stdout_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// True once the child prints READY; false on EOF or timeout.
  bool WaitReady() {
    const auto deadline = steady_clock::now() + kTimeout;
    std::string seen;
    while (seen.find("READY") == std::string::npos) {
      const auto left = std::chrono::duration_cast<milliseconds>(
          deadline - steady_clock::now());
      pollfd p{stdout_fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          poll(&p, 1, static_cast<int>(left.count())) <= 0) {
        return false;
      }
      char buf[256];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      seen.append(buf, static_cast<size_t>(n));
    }
    return true;
  }

  /// Sends `sig` (none if 0) and reaps the child. Returns its wait
  /// status, or -1 if it has not exited in time (it is killed then).
  int Stop(int sig) {
    if (sig != 0) kill(pid_, sig);
    const auto deadline = steady_clock::now() + kTimeout;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (steady_clock::now() > deadline) return -1;
      std::this_thread::sleep_for(milliseconds(10));
    }
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

using Judge = std::function<DiffVerdict(const net::Response&, bool degraded)>;

/// One fixed request and the judge of its response. `degraded` is the
/// frame's degraded flag.
struct Case {
  const char* kind = nullptr;
  net::Request request;
  Judge judge;
};

rtree::LeafHit ToLeafHit(const net::WireHit& h) {
  return {h.mbr, storage::Rid{h.rid.page_id, h.rid.slot}};
}

std::vector<rtree::LeafHit> ToLeafHits(const std::vector<net::WireHit>& hits) {
  std::vector<rtree::LeafHit> out;
  out.reserve(hits.size());
  for (const net::WireHit& h : hits) out.push_back(ToLeafHit(h));
  return out;
}

Judge HitsJudge(std::vector<rtree::LeafHit> want) {
  return [want = std::move(want)](const net::Response& r, bool degraded) {
    const auto* hits = std::get_if<net::HitsResponse>(&r.body);
    if (hits == nullptr) return DiffVerdict::kWrongAnswer;
    return check::CompareHits(ToLeafHits(hits->hits), want, degraded);
  };
}

/// The request list: seeded, identical on every run, every kind.
std::vector<Case> MakeCases(const check::Oracle& base,
                            const check::Oracle& overlay,
                            const psql::Executor& executor) {
  std::vector<Case> cases;
  auto add = [&](const char* kind, auto body, Judge judge) {
    Case& c = cases.emplace_back();
    c.kind = kind;
    c.request.body = std::move(body);
    c.request.options.degraded_ok = true;
    c.judge = std::move(judge);
  };
  const geom::Rect frame = workload::PaperFrame();
  Random rng(kSeed * 7919 + 17);
  auto random_point = [&] {
    return geom::Point{rng.UniformDouble(frame.lo.x, frame.hi.x),
                       rng.UniformDouble(frame.lo.y, frame.hi.y)};
  };
  auto random_window = [&] {
    const geom::Point c = random_point();
    return geom::Rect::FromCenterHalfExtent(c.x, rng.UniformDouble(2, 25), c.y,
                                            rng.UniformDouble(2, 25));
  };

  for (int i = 0; i < 8; ++i) {
    const geom::Rect w = random_window();
    add("window", net::WindowRequest{w, false}, HitsJudge(base.Intersects(w)));
    // Half the points are stored objects (hits), half random (misses).
    const geom::Point p = i % 2 == 0
                              ? base.entries()[rng.Uniform(base.size())].mbr.lo
                              : random_point();
    add("point", net::PointRequest{p}, HitsJudge(base.AtPoint(p)));
    const geom::Point q = random_point();
    add("knn", net::KnnRequest{q, 10},
        [&base, q](const net::Response& r, bool degraded) {
          const auto* nn = std::get_if<net::NeighborsResponse>(&r.body);
          if (nn == nullptr) return DiffVerdict::kWrongAnswer;
          std::vector<rtree::Neighbor> got;
          for (const net::WireNeighbor& n : nn->neighbors) {
            got.push_back({ToLeafHit(n.hit), n.distance});
          }
          return check::CompareNeighbors(got, base, q, 10, degraded);
        });
  }
  for (int i = 0; i < 4; ++i) {
    net::BatchWindowRequest batch;
    std::vector<std::vector<rtree::LeafHit>> want;
    for (int j = 0; j < 8; ++j) {
      batch.windows.push_back(random_window());
      want.push_back(base.Intersects(batch.windows.back()));
    }
    add("batch", std::move(batch),
        [want](const net::Response& r, bool degraded) {
          const auto* b = std::get_if<net::BatchHitsResponse>(&r.body);
          if (b == nullptr || b->per_window.size() != want.size()) {
            return DiffVerdict::kWrongAnswer;
          }
          DiffVerdict worst = DiffVerdict::kMatch;
          for (size_t i = 0; i < want.size(); ++i) {
            const DiffVerdict v =
                check::CompareHits(ToLeafHits(b->per_window[i].hits), want[i],
                                   degraded || b->per_window[i].degraded);
            if (v != DiffVerdict::kMatch) worst = v;
            if (v == DiffVerdict::kWrongAnswer) break;
          }
          return worst;
        });
  }
  add("join", net::JoinRequest{0},
      [want = base.CountJoinPairs(overlay)](const net::Response& r,
                                            bool degraded) {
        const auto* j = std::get_if<net::JoinResponse>(&r.body);
        if (j != nullptr && j->pairs == want) return DiffVerdict::kMatch;
        return j != nullptr && degraded && j->pairs < want
                   ? DiffVerdict::kDegradedSubset
                   : DiffVerdict::kWrongAnswer;
      });
  // PSQL runs on the server's in-memory catalog, outside the fault
  // layer, so its rows must always match exactly.
  for (const std::string text :
       {"select count(*) from cities",
        "select city, population from cities where population > 500000",
        "select city from cities on us-map at loc covered-by "
        "{-77 +- 8, 39 +- 4}"}) {
    auto result = executor.Query(text);
    PICTDB_CHECK(result.ok()) << result.status().ToString();
    std::vector<std::vector<std::string>> want;
    for (const auto& row : result->rows) {
      want.emplace_back();
      for (const rel::Value& v : row) want.back().push_back(v.ToString());
    }
    add("psql", net::PsqlRequest{text}, [want](const net::Response& r, bool) {
      const auto* t = std::get_if<net::TableResponse>(&r.body);
      return t != nullptr && t->rows == want ? DiffVerdict::kMatch
                                             : DiffVerdict::kWrongAnswer;
    });
  }
  return cases;
}

struct Tally {
  size_t exact = 0;
  size_t degraded = 0;
  size_t errors = 0;  // non-OK replies
  size_t cached = 0;
  std::vector<std::string> wrong;
};

/// Every client thread sends every case once, each from its own offset
/// in the list, and judges the answers.
Tally RunCases(const std::string& sock, const std::vector<Case>& cases) {
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Tally& tally = tallies[t];
      auto client = net::Client::ConnectUnix(sock);
      if (!client.ok()) {
        tally.wrong.push_back("connect: " + client.status().ToString());
        return;
      }
      for (size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[(i + t * 7) % cases.size()];
        auto result = client->Call(c.request);
        if (!result.ok()) {
          ++tally.errors;
          continue;
        }
        if (result->cached()) ++tally.cached;
        switch (c.judge(result->response, result->degraded())) {
          case DiffVerdict::kMatch:
            ++tally.exact;
            break;
          case DiffVerdict::kDegradedSubset:
            ++tally.degraded;
            break;
          case DiffVerdict::kWrongAnswer:
            tally.wrong.push_back(std::string(c.kind) + " case " +
                                  std::to_string(i));
            break;
        }
      }
    });
  }
  Tally total;
  for (size_t t = 0; t < kClients; ++t) {
    clients[t].join();
    total.exact += tallies[t].exact;
    total.degraded += tallies[t].degraded;
    total.errors += tallies[t].errors;
    total.cached += tallies[t].cached;
    for (std::string& w : tallies[t].wrong) total.wrong.push_back(std::move(w));
  }
  return total;
}

TEST(ServerProcessTest, AnswersEveryKindExactlyAroundAFaultEpisodeThenDrains) {
  const std::string dir = MakeTempDir();
  const std::string sock = dir + "/s.sock";
  ServerProcess server(
      {"--file=" + dir + "/db.pages", "--unix=" + sock,
       "--objects=" + std::to_string(kObjects),
       "--overlay=" + std::to_string(kOverlay),
       "--pool-pages=" + std::to_string(kPoolPages), "--allow-admin"},
      dir + "/stderr");

  // The oracle side, built while the server packs its tree.
  workload::ServingDataset data =
      workload::MakeServingDataset(kSeed, kObjects, kOverlay);
  const check::Oracle base(std::move(data.points));
  const check::Oracle overlay(std::move(data.overlay));
  storage::InMemoryDiskManager catalog_disk(512);
  storage::BufferPool catalog_pool(&catalog_disk, 512, 2);
  rel::Catalog catalog(&catalog_pool);
  ASSERT_TRUE(workload::BuildUsCatalog(&catalog).ok());
  const psql::Executor executor(&catalog);
  const std::vector<Case> cases = MakeCases(base, overlay, executor);
  const size_t requests = kClients * cases.size();

  ASSERT_TRUE(server.WaitReady()) << ReadFile(dir + "/stderr");
  auto admin = net::Client::ConnectUnix(sock);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();

  const Tally clean = RunCases(sock, cases);
  EXPECT_EQ(clean.exact, requests);
  EXPECT_TRUE(clean.wrong.empty()) << clean.wrong.front();

  // Half of all page reads fail: the pool's read retries cannot absorb
  // that, so some answers must come back degraded or as errors.
  ASSERT_TRUE(admin->SetFaults(/*transient_read_error_rate=*/0.5,
                               /*read_bit_flip_rate=*/0.0)
                  .ok());
  const Tally faulted = RunCases(sock, cases);
  EXPECT_TRUE(faulted.wrong.empty()) << faulted.wrong.front();
  EXPECT_GT(faulted.degraded + faulted.errors, 0u);

  ASSERT_TRUE(admin->SetFaults(0.0, 0.0).ok());
  const Tally healed = RunCases(sock, cases);
  EXPECT_EQ(healed.exact, requests);
  EXPECT_TRUE(healed.wrong.empty()) << healed.wrong.front();
  EXPECT_EQ(clean.cached + faulted.cached + healed.cached, 0u);

  const int status = server.Stop(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  const std::string log = ReadFile(dir + "/stderr");
  EXPECT_NE(log.find("drained; final stats:"), std::string::npos) << log;
  // More page-file reads than requests sent: the tree is served from
  // disk, not from the pool.
  const size_t reads_at = log.find("disk: reads=");
  ASSERT_NE(reads_at, std::string::npos) << log;
  EXPECT_GT(std::strtoull(log.c_str() + reads_at + 12, nullptr, 10),
            3 * requests);
  std::filesystem::remove_all(dir);
}

TEST(ServerProcessTest, PageFileHoldsTheTreeOnceReady) {
  // With the default pool the whole tree fits in memory, so only an
  // explicit flush puts it in the page file before READY.
  const std::string dir = MakeTempDir();
  const std::string pages = dir + "/db.pages";
  ServerProcess server({"--file=" + pages, "--unix=" + dir + "/s.sock",
                        "--objects=2000", "--overlay=50"},
                       dir + "/stderr");
  ASSERT_TRUE(server.WaitReady()) << ReadFile(dir + "/stderr");
  const std::string file = ReadFile(pages);
  EXPECT_GT(file.size(), 0u);
  EXPECT_NE(file.find_first_not_of('\0'), std::string::npos)
      << "page file is all zero after READY";

  const int status = server.Stop(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  const std::string log = ReadFile(dir + "/stderr");
  const size_t writes_at = log.find("writes=", log.find("disk: reads="));
  ASSERT_NE(writes_at, std::string::npos) << log;
  EXPECT_GT(std::strtoull(log.c_str() + writes_at + 7, nullptr, 10), 0u)
      << log;
  std::filesystem::remove_all(dir);
}

TEST(ServerProcessTest, RefusesMalformedNumericFlagsBeforeBuilding) {
  const std::string dir = MakeTempDir();
  for (const std::string bad :
       {"--objects=abc", "--objects=12abc", "--threads=-1", "--seed=-1",
        "--quota-qps=abc"}) {
    SCOPED_TRACE(bad);
    ServerProcess server(
        {"--file=" + dir + "/db.pages", "--unix=" + dir + "/s.sock", bad},
        dir + "/stderr");
    if (server.WaitReady()) {
      ADD_FAILURE() << "server started";  // the destructor kills it
      continue;
    }
    const int status = server.Stop(0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << status;
    EXPECT_NE(ReadFile(dir + "/stderr").find("usage:"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(dir + "/db.pages"));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pictdb
