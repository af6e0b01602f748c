#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/status_or.h"

namespace pictdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EveryFactoryMatchesItsPredicate) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

StatusOr<int> DoubleIfPositive(int v) {
  PICTDB_ASSIGN_OR_RETURN(const int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = ParsePositive(21);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 21);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = ParsePositive(-3);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*DoubleIfPositive(5), 10);
  EXPECT_TRUE(DoubleIfPositive(-5).status().IsInvalidArgument());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(SliceTest, BasicAccessors) {
  const std::string data = "hello";
  Slice s(data);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
}

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  // Shorter prefix sorts first.
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
}

TEST(SliceTest, RemovePrefix) {
  Slice s("database");
  s.RemovePrefix(4);
  EXPECT_EQ(s.ToString(), "base");
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Random rng(7);
  std::map<uint64_t, int> histogram;
  for (int i = 0; i < 10000; ++i) ++histogram[rng.Uniform(8)];
  ASSERT_EQ(histogram.size(), 8u);
  for (const auto& [value, count] : histogram) {
    // Expected 1250 per bucket; allow wide slack.
    EXPECT_GT(count, 1000) << "value " << value;
    EXPECT_LT(count, 1500) << "value " << value;
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(ParallelForTest, CallsEveryIndexExactlyOnce) {
  for (const size_t threads : {1u, 3u, 8u}) {
    for (const size_t n : {0u, 1u, 5u, 1000u}) {
      std::vector<std::atomic<int>> calls(n);
      ParallelFor(threads, n, [&](size_t i) { ++calls[i]; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(calls[i].load(), 1)
            << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroThreadsRunsEveryIndexOnOneStartedThread) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<size_t> order;
  ParallelFor(0, 50, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    order.push_back(i);
  });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_NE(*ids.begin(), std::this_thread::get_id());
  ASSERT_EQ(order.size(), 50u);
  // One thread claims the indices from the counter in turn.
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, CallsRunConcurrentlyOnSeparateThreads) {
  // Every call waits until all four have started, which only finishes
  // if four threads run them at once. The wait is bounded so a serial
  // ParallelFor fails instead of hanging.
  constexpr size_t kThreads = 4;
  std::atomic<size_t> arrived{0};
  std::atomic<size_t> saw_all{0};
  ParallelFor(kThreads, kThreads, [&](size_t) {
    ++arrived;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < kThreads &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    if (arrived.load() == kThreads) ++saw_all;
  });
  EXPECT_EQ(saw_all.load(), kThreads);
}

}  // namespace
}  // namespace pictdb
