// §3.4 "The Update Problem": Guttman's INSERT and DELETE keep working on
// a PACKed R-tree. This experiment measures how tree quality degrades as
// an initially packed tree absorbs update batches (insert new objects +
// delete old ones), compared against (a) the freshly packed tree over the
// same final data and (b) a tree grown purely dynamically.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "check/invariants.h"
#include "common/random.h"
#include "pack/pack.h"
#include "rtree/metrics.h"
#include "wal/durable_tree.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace {

using pictdb::Random;
using pictdb::bench::FakeRid;
using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;
using pictdb::rtree::RTreeOptions;

RTreeOptions Options() {
  RTreeOptions opts;
  opts.max_entries = 8;
  opts.min_entries = 4;
  return opts;
}

double WindowVisits(const pictdb::rtree::RTree& tree,
                    const std::vector<Rect>& windows) {
  uint64_t total = 0;
  for (const Rect& w : windows) {
    pictdb::rtree::SearchStats stats;
    PICTDB_CHECK_OK(tree.SearchIntersects(w, &stats).status());
    total += stats.nodes_visited;
  }
  return static_cast<double>(total) / windows.size();
}

}  // namespace

int main() {
  constexpr size_t kInitial = 4000;
  constexpr size_t kBatch = 400;     // per round: 400 inserts + 400 deletes
  constexpr int kRounds = 10;

  Random rng(31415);
  const auto frame = pictdb::workload::PaperFrame();
  auto live = pictdb::workload::UniformPoints(&rng, kInitial, frame);
  std::vector<size_t> ids(live.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  size_t next_id = live.size();

  TreeEnv packed = TreeEnv::Make(Options());
  {
    std::vector<pictdb::storage::Rid> rids;
    for (size_t id : ids) rids.push_back(FakeRid(id));
    PICTDB_CHECK_OK(pictdb::pack::Pack(
        packed.tree.get(), pictdb::pack::MakeLeafEntries(live, rids)));
  }

  const auto windows =
      pictdb::workload::RandomWindowQueries(&rng, 400, 0.005, frame);

  std::printf("initially packed tree under churn (%zu objects, "
              "%zu ins + %zu del per round)\n\n",
              kInitial, kBatch, kBatch);
  std::printf("%6s %10s %10s %6s %7s %10s\n", "round", "coverage",
              "overlap", "depth", "nodes", "win-nodes");

  auto report = [&](int round) {
    auto q = pictdb::rtree::MeasureTree(*packed.tree);
    PICTDB_CHECK(q.ok());
    std::printf("%6d %10.0f %10.1f %6u %7llu %10.2f\n", round, q->coverage,
                q->overlap, q->depth,
                static_cast<unsigned long long>(q->nodes),
                WindowVisits(*packed.tree, windows));
  };
  report(0);

  for (int round = 1; round <= kRounds; ++round) {
    // Delete a random batch.
    for (size_t d = 0; d < kBatch; ++d) {
      const size_t pick = rng.Uniform(live.size());
      PICTDB_CHECK_OK(packed.tree->Delete(Rect::FromPoint(live[pick]),
                                          FakeRid(ids[pick])));
      live[pick] = live.back();
      ids[pick] = ids.back();
      live.pop_back();
      ids.pop_back();
    }
    // Insert a fresh batch.
    const auto fresh = pictdb::workload::UniformPoints(&rng, kBatch, frame);
    for (const Point& p : fresh) {
      PICTDB_CHECK_OK(
          packed.tree->Insert(Rect::FromPoint(p), FakeRid(next_id)));
      live.push_back(p);
      ids.push_back(next_id++);
    }
    const pictdb::check::ValidationReport check =
        pictdb::check::TreeValidator().Check(*packed.tree);
    PICTDB_CHECK(check.ok()) << check.ToString();
    report(round);
  }

  // Baselines over the final data.
  {
    TreeEnv repacked = TreeEnv::Make(Options());
    std::vector<pictdb::storage::Rid> rids;
    for (size_t id : ids) rids.push_back(FakeRid(id));
    PICTDB_CHECK_OK(pictdb::pack::Pack(
        repacked.tree.get(), pictdb::pack::MakeLeafEntries(live, rids)));
    auto q = pictdb::rtree::MeasureTree(*repacked.tree);
    PICTDB_CHECK(q.ok());
    std::printf("\nfresh PACK of the final data:   coverage=%.0f nodes=%llu "
                "win-nodes=%.2f\n",
                q->coverage, static_cast<unsigned long long>(q->nodes),
                WindowVisits(*repacked.tree, windows));
  }
  {
    TreeEnv dynamic = TreeEnv::Make(Options());
    for (size_t i = 0; i < live.size(); ++i) {
      PICTDB_CHECK_OK(
          dynamic.tree->Insert(Rect::FromPoint(live[i]), FakeRid(ids[i])));
    }
    auto q = pictdb::rtree::MeasureTree(*dynamic.tree);
    PICTDB_CHECK(q.ok());
    std::printf("pure dynamic tree, same data:   coverage=%.0f nodes=%llu "
                "win-nodes=%.2f\n",
                q->coverage, static_cast<unsigned long long>(q->nodes),
                WindowVisits(*dynamic.tree, windows));
  }
  std::printf(
      "\n§3.4's claim: packed trees absorb updates gracefully — quality "
      "drifts toward the\ndynamic tree's but a periodic re-PACK restores "
      "the initial state.\n");

  // --- WAL'd online path ------------------------------------------------
  // The same churn with every mutation logged and fsynced through
  // wal::DurableRTree: what does durability cost, and how does recovery
  // time scale with the log length between checkpoints?
  std::printf("\nWAL'd online path (log + fsync per mutation, "
              "in-memory disk)\n\n");
  {
    pictdb::storage::InMemoryDiskManager disk(512);
    pictdb::storage::BufferPool pool(&disk, 1 << 14);
    pictdb::wal::DurableOptions dopts;
    dopts.checkpoint_every = 1u << 30;  // sweep controls rotation itself
    auto created =
        pictdb::wal::DurableRTree::Create(&pool, Options(), dopts);
    PICTDB_CHECK(created.ok());
    auto durable = std::move(created).value();
    std::vector<pictdb::storage::Rid> rids;
    for (size_t id : ids) rids.push_back(FakeRid(id));
    PICTDB_CHECK_OK(durable->BulkLoad(
        pictdb::pack::MakeLeafEntries(live, rids)));
    const pictdb::storage::PageId meta = durable->meta_page();
    const pictdb::storage::PageId anchor = durable->anchor_page();

    // Throughput: one churn round (kBatch deletes + kBatch inserts),
    // each commit paying append + fsync + apply.
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t d = 0; d < kBatch; ++d) {
      const size_t pick = rng.Uniform(live.size());
      PICTDB_CHECK_OK(durable->Delete(Rect::FromPoint(live[pick]),
                                      FakeRid(ids[pick])));
      live[pick] = live.back();
      ids[pick] = ids.back();
      live.pop_back();
      ids.pop_back();
    }
    const auto fresh =
        pictdb::workload::UniformPoints(&rng, kBatch, frame);
    for (const Point& p : fresh) {
      PICTDB_CHECK_OK(
          durable->Insert(Rect::FromPoint(p), FakeRid(next_id)));
      live.push_back(p);
      ids.push_back(next_id++);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    std::printf("update throughput: %zu logged commits in %.1f ms "
                "(%.0f commits/s)\n\n",
                2 * kBatch, secs * 1e3, 2 * kBatch / secs);

    // Recovery time vs WAL length: checkpoint (empty log), append N more
    // mutations, then reopen after a simulated unclean shutdown and let
    // recovery_info() report the rebuild cost.
    std::printf("%10s %12s %12s %14s\n", "wal-ops", "wal-bytes",
                "replayed", "recovery-ms");
    for (const size_t wal_ops : {size_t{0}, size_t{500}, size_t{1000},
                                 size_t{2000}, size_t{4000}}) {
      PICTDB_CHECK_OK(durable->Checkpoint());
      for (size_t i = 0; i < wal_ops; ++i) {
        const auto p = pictdb::workload::UniformPoints(&rng, 1, frame);
        PICTDB_CHECK_OK(
            durable->Insert(Rect::FromPoint(p[0]), FakeRid(next_id++)));
      }
      const uint64_t bytes = durable->wal_chain_bytes();
      durable.reset();  // no Close(): unclean shutdown, forces a rebuild
      auto reopened = pictdb::wal::DurableRTree::Open(&pool, meta, anchor,
                                                      dopts);
      PICTDB_CHECK(reopened.ok()) << reopened.status().ToString();
      durable = std::move(reopened).value();
      const auto& info = durable->recovery_info();
      std::printf("%10zu %12llu %12llu %14.2f\n", wal_ops,
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(info.replayed_ops),
                  info.elapsed.count() / 1e3);
    }
    std::printf(
        "\nrecovery = snapshot PACK + redo of the post-checkpoint tail: "
        "cost is linear in\nthe log length, so the checkpoint cadence is "
        "the recovery-time budget knob.\n");
  }
  return 0;
}
