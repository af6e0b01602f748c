#include <gtest/gtest.h>

#include <vector>

#include "check/oracle.h"
#include "check/stress.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "workload/generators.h"

namespace pictdb::check {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::Rid;

StressConfig SmallConfig() {
  StressConfig config;
  config.seed = 1234;
  config.ops = 400;
  config.initial_entries = 256;
  config.validate_every = 64;
  config.fault_plan.seed = 77;
  config.fault_plan.transient_read_error_rate = 0.01;
  config.fault_plan.transient_write_error_rate = 0.005;
  config.fault_plan.read_bit_flip_rate = 0.01;
  return config;
}

TEST(StressTraceTest, RoundTripsThroughText) {
  const StressConfig config = SmallConfig();
  const std::vector<Op> trace = GenerateTrace(config);
  ASSERT_FALSE(trace.empty());

  auto parsed = ParseTrace(TraceToText(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const Op& a = trace[i];
    const Op& b = (*parsed)[i];
    EXPECT_EQ(a.kind, b.kind) << "op " << i;
    EXPECT_EQ(a.a, b.a) << "op " << i;
    // %.17g round-trips doubles exactly.
    EXPECT_EQ(a.rect.lo.x, b.rect.lo.x) << "op " << i;
    EXPECT_EQ(a.rect.hi.y, b.rect.hi.y) << "op " << i;
    EXPECT_EQ(a.point.x, b.point.x) << "op " << i;
  }
}

TEST(StressTraceTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(ParseTrace("insert 1 2 3").ok());
  EXPECT_FALSE(ParseTrace("frobnicate").ok());
  EXPECT_FALSE(ParseTrace("knn 1 2").ok());
  // Comments and blank lines are fine.
  auto ok = ParseTrace("# repro 42\n\nrepack\nvalidate\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);
}

TEST(StressRunTest, GenerationAndExecutionAreDeterministic) {
  const StressConfig config = SmallConfig();
  const std::vector<Op> a = GenerateTrace(config);
  const std::vector<Op> b = GenerateTrace(config);
  ASSERT_EQ(TraceToText(a), TraceToText(b));

  const StressOutcome first = RunTrace(a, config);
  const StressOutcome second = RunTrace(a, config);
  EXPECT_FALSE(first.failed) << first.Summary();
  EXPECT_EQ(first.Summary(), second.Summary());
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.degraded_subsets, second.degraded_subsets);
}

TEST(StressRunTest, CleanRunHasNoWrongAnswersAndValidates) {
  StressConfig config = SmallConfig();
  config.fault_plan = {};  // fault flips arm a plan with all-zero rates
  config.ops = 800;
  const StressOutcome outcome = RunTrace(GenerateTrace(config), config);
  EXPECT_FALSE(outcome.failed) << outcome.Summary();
  EXPECT_GT(outcome.queries, 0u);
  EXPECT_GT(outcome.mutations, 0u);
  EXPECT_GT(outcome.validations, 0u);
  EXPECT_EQ(outcome.wrong_answers, 0u);
  EXPECT_EQ(outcome.degraded_subsets, 0u);  // nothing was ever degraded
}

TEST(StressRunTest, FaultEpisodesStayHonest) {
  StressConfig config = SmallConfig();
  config.ops = 1200;
  config.pool_frames = 64;  // small pool: reads really hit the flaky disk
  const StressOutcome outcome = RunTrace(GenerateTrace(config), config);
  EXPECT_FALSE(outcome.failed) << outcome.Summary();
  EXPECT_EQ(outcome.wrong_answers, 0u);
  EXPECT_GT(outcome.queries, 0u);
}

TEST(StressRunTest, ServiceModeIsDeterministicToo) {
  StressConfig config = SmallConfig();
  config.use_service = true;
  config.ops = 300;
  const std::vector<Op> trace = GenerateTrace(config);
  const StressOutcome first = RunTrace(trace, config);
  const StressOutcome second = RunTrace(trace, config);
  EXPECT_FALSE(first.failed) << first.Summary();
  EXPECT_EQ(first.Summary(), second.Summary());
}

// The search-batch op diffs SearchBatch against the oracle AND the
// single-window path (bit-identical hit order when no faults are
// armed). Weight defaults to 0 so existing seed traces stay stable;
// turn it up here — fault-free so the strict equivalence arm runs,
// then under faults for the degraded bookkeeping, in both the plain
// and service harnesses.
TEST(StressRunTest, SearchBatchOpMatchesOracleAndSinglePath) {
  StressConfig config = SmallConfig();
  config.fault_plan = {};
  config.ops = 600;
  config.w_search_batch = 25.0;
  const std::vector<Op> trace = GenerateTrace(config);
  // The weight actually produced batch ops (not a vacuous run).
  size_t batch_ops = 0;
  for (const Op& op : trace) {
    if (op.kind == OpKind::kSearchBatch) ++batch_ops;
  }
  ASSERT_GT(batch_ops, 10u);

  const StressOutcome plain = RunTrace(trace, config);
  EXPECT_FALSE(plain.failed) << plain.Summary();
  EXPECT_EQ(plain.wrong_answers, 0u);

  config.use_service = true;
  const StressOutcome service = RunTrace(trace, config);
  EXPECT_FALSE(service.failed) << service.Summary();
  EXPECT_EQ(service.wrong_answers, 0u);
}

TEST(StressRunTest, SearchBatchOpStaysHonestUnderFaults) {
  StressConfig config = SmallConfig();
  config.ops = 800;
  config.w_search_batch = 25.0;
  config.pool_frames = 64;  // small pool: reads really hit the flaky disk
  const StressOutcome outcome = RunTrace(GenerateTrace(config), config);
  EXPECT_FALSE(outcome.failed) << outcome.Summary();
  EXPECT_EQ(outcome.wrong_answers, 0u);
}

TEST(StressShrinkTest, CorruptionIsCaughtAndMinimized) {
  StressConfig config = SmallConfig();
  config.fault_plan = {};
  config.ops = 120;
  std::vector<Op> trace = GenerateTrace(config);
  // Plant the seeded corruption the harness exists to catch: one flipped
  // mantissa bit in an inner-node entry MBR, mid-trace.
  Op corrupt;
  corrupt.kind = OpKind::kCorruptMbr;
  corrupt.a = 17;
  trace.insert(trace.begin() + trace.size() / 2, corrupt);

  const StressOutcome outcome = RunTrace(trace, config);
  ASSERT_TRUE(outcome.failed) << outcome.Summary();
  EXPECT_NE(outcome.message.find("validator"), std::string::npos)
      << outcome.message;

  const std::vector<Op> shrunk = ShrinkTrace(trace, FailsUnder(config));
  EXPECT_LE(shrunk.size(), 10u) << TraceToText(shrunk);
  EXPECT_TRUE(RunTrace(shrunk, config).failed);

  // The minimized trace is a replayable text reproducer.
  auto reparsed = ParseTrace(TraceToText(shrunk));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(RunTrace(*reparsed, config).failed);
}

TEST(StressShrinkTest, PassingTraceIsReturnedUntouched) {
  StressConfig config = SmallConfig();
  config.fault_plan = {};
  config.ops = 50;
  const std::vector<Op> trace = GenerateTrace(config);
  ASSERT_FALSE(RunTrace(trace, config).failed);
  EXPECT_EQ(ShrinkTrace(trace, FailsUnder(config)).size(), trace.size());
}

// The ISSUE's acceptance bar: >= 10k mixed queries replayed against the
// oracle across clean, faulty, and degraded regimes, zero wrong answers.
TEST(AcceptanceTest, TenThousandMixedQueriesZeroWrongAnswers) {
  Random rng(2026);
  const auto pts =
      workload::UniformPoints(&rng, 2000, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < pts.size(); ++i) {
    rids.push_back(Rid{static_cast<storage::PageId>(i), 0});
  }
  const std::vector<Entry> entries = pack::MakeLeafEntries(pts, rids);
  const Oracle oracle(entries);

  storage::InMemoryDiskManager mem(512);
  storage::FaultInjectionDiskManager faulty(&mem, {});
  faulty.ClearFaults();
  storage::BufferPoolOptions popts;
  popts.max_read_retries = 10;
  popts.retry_backoff_base = std::chrono::microseconds(0);
  storage::BufferPool pool(&faulty, 128, /*shards=*/4, popts);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(pack::Pack(&tree, entries));

  DiffRunner runner(&tree, &oracle);
  uint64_t total = 0, wrong = 0, failed = 0, degraded = 0;
  auto accumulate = [&](const StatusOr<DiffReport>& report) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    total += report->queries;
    wrong += report->wrong_answers;
    failed += report->failures;
    degraded += report->degraded_subsets;
  };

  {  // Clean, direct.
    DiffConfig config;
    config.seed = 1;
    config.queries = 4000;
    accumulate(runner.Run(config));
  }
  {  // Clean, through the concurrent service.
    DiffConfig config;
    config.seed = 2;
    config.queries = 2000;
    config.use_service = true;
    accumulate(runner.Run(config));
  }
  {  // 1% transient faults + bit flips, degraded mode admissible.
    storage::FaultPlan plan;
    plan.seed = 3;
    plan.transient_read_error_rate = 0.01;
    plan.read_bit_flip_rate = 0.01;
    faulty.SetPlan(plan);
    DiffConfig config;
    config.seed = 4;
    config.queries = 4000;
    config.degraded_ok = true;
    accumulate(runner.Run(config));
    faulty.ClearFaults();
  }

  EXPECT_GE(total, 10000u);
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(failed, 0u);
  // Degraded subsets are allowed (and expected to be rare), wrong
  // answers never.
  SUCCEED() << total << " queries, " << degraded << " degraded subsets";
}

}  // namespace
}  // namespace pictdb::check
