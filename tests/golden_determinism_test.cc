#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "geom/geometry.h"
#include "pack/pack.h"
#include "pack/repack.h"
#include "rtree/join.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "simd/dispatch.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/generators.h"

namespace pictdb::pack {
namespace {

using rtree::Entry;
using rtree::RTree;
using storage::PageId;
using storage::Rid;

/// One fully built database image: every page the build touched,
/// flushed and read back raw (checksum trailer included).
struct DiskImage {
  uint32_t page_size = 0;
  std::vector<std::vector<char>> pages;

  bool operator==(const DiskImage& other) const {
    if (page_size != other.page_size || pages.size() != other.pages.size()) {
      return false;
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (pages[i] != other.pages[i]) return false;
    }
    return true;
  }
};

std::vector<Entry> SeededEntries(uint64_t seed, size_t n) {
  Random rng(seed);
  const auto pts = workload::UniformPoints(&rng, n, workload::PaperFrame());
  std::vector<Rid> rids;
  for (size_t i = 0; i < n; ++i) {
    rids.push_back(Rid{static_cast<PageId>(i), 0});
  }
  return MakeLeafEntries(pts, rids);
}

template <typename BuildFn>
DiskImage BuildImage(const std::vector<Entry>& entries, const BuildFn& build) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  build(&tree, entries);
  PICTDB_CHECK_OK(pool.FlushAll());

  DiskImage image;
  image.page_size = disk.page_size();
  image.pages.resize(disk.page_count());
  for (PageId id = 0; id < disk.page_count(); ++id) {
    image.pages[id].resize(disk.page_size());
    PICTDB_CHECK_OK(disk.ReadPage(id, image.pages[id].data()));
  }
  return image;
}

// Determinism is a load-bearing property here: the stress harness's
// replayable reproducers and the fault injector's seeded schedules both
// assume that the same build sequence yields the same bytes on disk.

TEST(GoldenDeterminismTest, NearestNeighborPackIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(Pack(tree, entries));
  };
  const DiskImage a = BuildImage(SeededEntries(71, 1000), build);
  const DiskImage b = BuildImage(SeededEntries(71, 1000), build);
  ASSERT_GT(a.pages.size(), 1u);
  EXPECT_TRUE(a == b);

  // Different seed, different bytes — the comparison is not vacuous.
  const DiskImage c = BuildImage(SeededEntries(72, 1000), build);
  EXPECT_FALSE(a == c);
}

TEST(GoldenDeterminismTest, SortChunkPackIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(
        Pack(tree, entries, {.strategy = PackStrategy::kSortChunk}));
  };
  EXPECT_TRUE(BuildImage(SeededEntries(73, 800), build) ==
              BuildImage(SeededEntries(73, 800), build));
}

TEST(GoldenDeterminismTest, InsertThenRepackIsByteIdentical) {
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      PICTDB_CHECK_OK(tree->Insert(e.mbr, e.AsRid()));
    }
    PICTDB_CHECK_OK(Repack(tree));
  };
  EXPECT_TRUE(BuildImage(SeededEntries(74, 500), build) ==
              BuildImage(SeededEntries(74, 500), build));
}

// --- Query-path determinism across kernel families -------------------------
//
// The SoA decode and SIMD kernels must not change a single answer:
// every query below is replayed through the scalar reference and the
// runtime-selected vector family and compared hit for hit, in order.
// The disk image is also rebuilt to prove the SoA refactor left the
// on-disk layout untouched.

std::vector<geom::Rect> SeededWindows(uint64_t seed, size_t n) {
  Random rng(seed);
  const geom::Rect frame = workload::PaperFrame();
  std::vector<geom::Rect> windows;
  for (size_t i = 0; i < n; ++i) {
    const double cx = rng.UniformDouble(frame.lo.x, frame.hi.x);
    const double cy = rng.UniformDouble(frame.lo.y, frame.hi.y);
    windows.push_back(geom::Rect::FromCenterHalfExtent(
        cx, rng.UniformDouble(1.0, 60.0), cy,
        rng.UniformDouble(1.0, 60.0)));
  }
  return windows;
}

bool SameHits(const std::vector<rtree::LeafHit>& a,
              const std::vector<rtree::LeafHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].mbr == b[i].mbr) || !(a[i].rid == b[i].rid)) return false;
  }
  return true;
}

TEST(GoldenDeterminismTest, SimdAndScalarSearchesAreIdentical) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(Pack(&tree, SeededEntries(81, 2000)));

  const std::vector<geom::Rect> windows = SeededWindows(82, 64);
  for (const geom::Rect& window : windows) {
    std::vector<rtree::LeafHit> scalar_hits, simd_hits;
    {
      simd::ScopedKernelOverride force(&simd::ScalarKernels());
      auto r = tree.SearchIntersects(window);
      PICTDB_CHECK(r.ok());
      scalar_hits = std::move(r).value();
    }
    auto r = tree.SearchIntersects(window);
    PICTDB_CHECK(r.ok());
    simd_hits = std::move(r).value();
    EXPECT_TRUE(SameHits(scalar_hits, simd_hits))
        << "scalar and runtime kernels disagree";

    {
      simd::ScopedKernelOverride force(&simd::ScalarKernels());
      auto c = tree.SearchContainedIn(window);
      PICTDB_CHECK(c.ok());
      scalar_hits = std::move(c).value();
    }
    auto c = tree.SearchContainedIn(window);
    PICTDB_CHECK(c.ok());
    EXPECT_TRUE(SameHits(scalar_hits, c.value()))
        << "contained-in diverges between kernel families";
  }
}

TEST(GoldenDeterminismTest, BatchSearchMatchesSingleWindowSearches) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(Pack(&tree, SeededEntries(83, 2000)));

  const std::vector<geom::Rect> windows = SeededWindows(84, 48);
  for (const bool contained : {false, true}) {
    auto batch = tree.SearchBatch(windows, contained);
    PICTDB_CHECK(batch.ok());
    ASSERT_EQ(batch->size(), windows.size());
    size_t nonempty = 0;
    for (size_t i = 0; i < windows.size(); ++i) {
      auto single = contained ? tree.SearchContainedIn(windows[i])
                              : tree.SearchIntersects(windows[i]);
      PICTDB_CHECK(single.ok());
      EXPECT_TRUE(SameHits((*batch)[i].hits, single.value()))
          << "batch window " << i << " (contained=" << contained
          << ") diverges from the single-window search";
      EXPECT_FALSE((*batch)[i].degraded);
      if (!single.value().empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 0u) << "vacuous batch comparison";
  }
}

TEST(GoldenDeterminismTest, SoaDecodeLeavesDiskImageUnchanged) {
  // Build + query, then rebuild without querying: reads must never
  // write. Also the stronger cross-property: the image equals the one
  // BuildImage produces for the identical build sequence.
  auto build = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(Pack(tree, entries));
  };
  auto build_and_query = [](RTree* tree, const std::vector<Entry>& entries) {
    PICTDB_CHECK_OK(Pack(tree, entries));
    for (const geom::Rect& window : SeededWindows(86, 32)) {
      PICTDB_CHECK(tree->SearchIntersects(window).ok());
      PICTDB_CHECK(tree->SearchBatch({&window, 1}, false).ok());
    }
  };
  EXPECT_TRUE(BuildImage(SeededEntries(85, 1200), build) ==
              BuildImage(SeededEntries(85, 1200), build_and_query));
}

// Node::Mbr() is documented as recompute-per-call; traversal hot paths
// must hoist it. The counter catches a regression that reintroduces a
// per-entry or per-use recomputation (see join.cc, invariants.cc).
TEST(GoldenDeterminismTest, SearchPathsDoNotRecomputeNodeMbrs) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, 8192);
  auto created = RTree::Create(&pool);
  PICTDB_CHECK(created.ok());
  RTree tree = std::move(created).value();
  PICTDB_CHECK_OK(Pack(&tree, SeededEntries(87, 2000)));

  const uint64_t before = rtree::MbrComputeCountForTesting();
  for (const geom::Rect& window : SeededWindows(88, 32)) {
    PICTDB_CHECK(tree.SearchIntersects(window).ok());
    PICTDB_CHECK(tree.SearchBatch({&window, 1}, false).ok());
  }
  // The kernel-driven window searches never need a node-level MBR at
  // all: the per-entry lanes carry everything.
  EXPECT_EQ(rtree::MbrComputeCountForTesting(), before);
}

// --- Golden hit sequences --------------------------------------------------
//
// Every read path folds its exact output sequence (order included) and
// its accounting into a 64-bit FNV-1a digest. The expected values are
// fixed constants: any change to traversal order, tie-breaking in kNN,
// the (left, right) order of join callbacks or the stats a path reports
// shows up as a digest mismatch.

class SequenceDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ull;
    }
  }
  void Add(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void Add(const geom::Rect& r) {
    Add(r.lo.x);
    Add(r.lo.y);
    Add(r.hi.x);
    Add(r.hi.y);
  }
  void Add(const rtree::LeafHit& hit) {
    Add(hit.mbr);
    Add(static_cast<uint64_t>(hit.rid.page_id));
    Add(static_cast<uint64_t>(hit.rid.slot));
  }
  void Add(const std::vector<rtree::LeafHit>& hits) {
    Add(static_cast<uint64_t>(hits.size()));
    for (const rtree::LeafHit& hit : hits) Add(hit);
  }
  void AddStats(const rtree::SearchStats& s, bool with_results = true) {
    Add(s.nodes_visited);
    Add(s.entries_tested);
    if (with_results) Add(s.results);
    Add(s.skipped_subtrees);
    Add(static_cast<uint64_t>(s.degraded));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Small rectangles (extended objects, so point and contained-in
/// queries have real answers), rid i = {page i, slot i % 7}.
std::vector<Entry> SeededRects(uint64_t seed, size_t n, double max_extent) {
  Random rng(seed);
  const geom::Rect frame = workload::PaperFrame();
  std::vector<Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.mbr = geom::Rect::FromCenterHalfExtent(
        rng.UniformDouble(frame.lo.x, frame.hi.x),
        rng.UniformDouble(0.0, max_extent),
        rng.UniformDouble(frame.lo.y, frame.hi.y),
        rng.UniformDouble(0.0, max_extent));
    e.payload = Entry::PayloadFromRid(
        Rid{static_cast<PageId>(i), static_cast<uint16_t>(i % 7)});
    entries.push_back(e);
  }
  return entries;
}

std::vector<geom::Point> SeededPoints(uint64_t seed, size_t n) {
  Random rng(seed);
  const geom::Rect frame = workload::PaperFrame();
  std::vector<geom::Point> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(geom::Point{rng.UniformDouble(frame.lo.x, frame.hi.x),
                                 rng.UniformDouble(frame.lo.y, frame.hi.y)});
  }
  return points;
}

class GoldenSequenceTest : public ::testing::Test {
 protected:
  GoldenSequenceTest() : disk_(512), pool_(&disk_, 8192) {}

  void SetUp() override {
    objects_ = BuildPacked(SeededRects(91, 3000, 8.0));
    overlay_ = BuildPacked(SeededRects(92, 150, 40.0));
    ASSERT_GT(objects_->Height(), overlay_->Height())
        << "join digests need trees of unequal height";
  }

  std::unique_ptr<RTree> BuildPacked(const std::vector<Entry>& entries) {
    auto created = RTree::Create(&pool_);
    PICTDB_CHECK(created.ok());
    auto tree = std::make_unique<RTree>(std::move(created).value());
    PICTDB_CHECK_OK(Pack(tree.get(), entries));
    return tree;
  }

  /// Window queries reuse SeededWindows; a second set is centred on
  /// stored objects so contained-in and point queries are never vacuous.
  std::vector<geom::Rect> Windows() const {
    return SeededWindows(93, 40);
  }
  std::vector<geom::Point> Points() const {
    std::vector<geom::Point> points = SeededPoints(94, 20);
    const std::vector<Entry> stored = SeededRects(91, 3000, 8.0);
    for (size_t i = 0; i < 20; ++i) {
      points.push_back(stored[i * 131].mbr.Center());
    }
    return points;
  }

  void ExpectDigest(const char* path, const SequenceDigest& d,
                    uint64_t expected) {
    EXPECT_EQ(d.value(), expected)
        << path << " digest changed: got 0x" << std::hex << d.value();
  }

  storage::InMemoryDiskManager disk_;
  storage::BufferPool pool_;
  std::unique_ptr<RTree> objects_;
  std::unique_ptr<RTree> overlay_;
};

TEST_F(GoldenSequenceTest, WindowIntersects) {
  SequenceDigest d;
  for (const geom::Rect& w : Windows()) {
    rtree::SearchStats stats;
    auto hits = objects_->SearchIntersects(w, &stats);
    ASSERT_TRUE(hits.ok());
    d.Add(*hits);
    d.AddStats(stats);
  }
  ExpectDigest("intersects", d, 0xfca7301fed32fc51ull);
}

TEST_F(GoldenSequenceTest, WindowContainedIn) {
  SequenceDigest d;
  for (const geom::Rect& w : Windows()) {
    rtree::SearchStats stats;
    auto hits = objects_->SearchContainedIn(w, &stats);
    ASSERT_TRUE(hits.ok());
    d.Add(*hits);
    d.AddStats(stats);
  }
  ExpectDigest("contained-in", d, 0x892235860fd25cd3ull);
}

TEST_F(GoldenSequenceTest, Point) {
  SequenceDigest d;
  size_t nonempty = 0;
  for (const geom::Point& p : Points()) {
    rtree::SearchStats stats;
    auto hits = objects_->SearchPoint(p, &stats);
    ASSERT_TRUE(hits.ok());
    if (!hits->empty()) ++nonempty;
    d.Add(*hits);
    d.AddStats(stats);
  }
  EXPECT_GE(nonempty, 20u);
  ExpectDigest("point", d, 0xccd56e2012d51914ull);
}

TEST_F(GoldenSequenceTest, Batch) {
  const std::vector<geom::Rect> windows = Windows();
  SequenceDigest d;
  for (const bool contained : {false, true}) {
    rtree::SearchStats stats;
    auto batch = objects_->SearchBatch(windows, contained, &stats);
    ASSERT_TRUE(batch.ok());
    for (const rtree::BatchHits& b : *batch) {
      d.Add(b.hits);
      d.Add(static_cast<uint64_t>(b.degraded));
    }
    d.AddStats(stats);
  }
  ExpectDigest("batch", d, 0xf6c41515b3cfb9f2ull);
}

TEST_F(GoldenSequenceTest, Nearest) {
  SequenceDigest d;
  for (const geom::Point& p : Points()) {
    rtree::SearchStats stats;
    auto nn = rtree::SearchNearest(*objects_, p, 7, &stats);
    ASSERT_TRUE(nn.ok());
    ASSERT_EQ(nn->size(), 7u);
    for (const rtree::Neighbor& n : *nn) {
      d.Add(n.hit);
      d.Add(n.distance);
    }
    d.AddStats(stats);
  }
  ExpectDigest("knn", d, 0x32e72345e4c4f6feull);
}

TEST_F(GoldenSequenceTest, NearestExact) {
  // Each object is the diagonal of its MBR, so exact distances differ
  // from MINDIST and refinement reorders candidates.
  const std::vector<Entry> stored = SeededRects(91, 3000, 8.0);
  auto resolver = [&stored](const Rid& rid) -> StatusOr<geom::Geometry> {
    const geom::Rect& mbr = stored[rid.page_id].mbr;
    return geom::Geometry(geom::Segment{mbr.lo, mbr.hi});
  };
  SequenceDigest d;
  for (const geom::Point& p : SeededPoints(95, 8)) {
    rtree::SearchStats stats;
    auto nn = rtree::SearchNearestExact(*objects_, p, 5, resolver, &stats);
    ASSERT_TRUE(nn.ok());
    ASSERT_EQ(nn->size(), 5u);
    for (const rtree::Neighbor& n : *nn) {
      d.Add(n.hit);
      d.Add(n.distance);
    }
    // `results` is left out: it equals the neighbor count, which the
    // sequence above already covers.
    d.AddStats(stats, /*with_results=*/false);
  }
  ExpectDigest("exact-knn", d, 0x52265573062d8cf3ull);
}

TEST_F(GoldenSequenceTest, Join) {
  // The digest covers the (left, right) callback sequence and every stat
  // but `pairs_tested`, which is pinned per orientation on its own: it
  // counts the join's work, not its answer, so a cheaper join changes
  // it while the sequence digest stays put.
  SequenceDigest d;
  uint64_t pairs_tested[2] = {0, 0};
  for (const bool objects_left : {true, false}) {
    const RTree& left = objects_left ? *objects_ : *overlay_;
    const RTree& right = objects_left ? *overlay_ : *objects_;
    rtree::JoinStats stats;
    uint64_t pairs = 0;
    ASSERT_TRUE(rtree::SpatialJoin(left, right,
                                   [&](const rtree::LeafHit& l,
                                       const rtree::LeafHit& r) {
                                     d.Add(l);
                                     d.Add(r);
                                     ++pairs;
                                   },
                                   &stats)
                    .ok());
    EXPECT_GT(pairs, 0u);
    d.Add(stats.nodes_visited);
    d.Add(stats.results);
    d.Add(stats.skipped_subtrees);
    d.Add(static_cast<uint64_t>(stats.degraded));
    pairs_tested[objects_left ? 0 : 1] = stats.pairs_tested;
  }
  ExpectDigest("join", d, 0xf9c3a471b01173c5ull);
  EXPECT_EQ(pairs_tested[0], 12539u) << "objects x overlay";
  EXPECT_EQ(pairs_tested[1], 15403u) << "overlay x objects";
  // The full per-pair scan tested 59622 in each orientation, and the
  // restricted search space with a per-candidate scalar loop 13709 and
  // 15413; looping over the side with fewer candidates stays below both.
  EXPECT_LE(pairs_tested[0], 13709u);
  EXPECT_LE(pairs_tested[1], 15413u);
}

TEST_F(GoldenSequenceTest, WholeTreeWalks) {
  SequenceDigest d;
  auto all = objects_->CollectAllEntries();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3000u);
  d.Add(*all);
  auto nodes = objects_->CountNodes();
  ASSERT_TRUE(nodes.ok());
  d.Add(*nodes);
  for (uint16_t level = 0; level < objects_->Height(); ++level) {
    auto mbrs = objects_->CollectNodeMbrsAtLevel(level);
    ASSERT_TRUE(mbrs.ok());
    d.Add(static_cast<uint64_t>(mbrs->size()));
    for (const geom::Rect& r : *mbrs) d.Add(r);
  }
  ExpectDigest("walks", d, 0x79a1257909de50ffull);
}

// --- Golden pack images ----------------------------------------------------
//
// Every packer configuration builds an in-memory tree whose raw disk
// image is folded into a fixed digest: any change to the node order,
// the grouping or the page allocation of a bulk load shows up here.

uint64_t ImageDigest(const DiskImage& image) {
  SequenceDigest d;
  d.Add(static_cast<uint64_t>(image.pages.size()));
  for (const std::vector<char>& page : image.pages) {
    for (size_t i = 0; i + 8 <= page.size(); i += 8) {
      uint64_t word;
      std::memcpy(&word, page.data() + i, sizeof(word));
      d.Add(word);
    }
  }
  return d.value();
}

TEST(GoldenDeterminismTest, PackImageDigests) {
  storage::InMemoryDiskManager probe_disk(512);
  storage::BufferPool probe_pool(&probe_disk, 16);
  auto probe = RTree::Create(&probe_pool);
  ASSERT_TRUE(probe.ok());
  const size_t b = probe->options().max_entries;
  const size_t sizes[] = {1, b, b + 1, 3000};

  const struct {
    const char* name;
    PackStrategy strategy;
    SortCriterion criterion;
  } kConfigs[] = {
      {"nn-x", PackStrategy::kNearestNeighbor, SortCriterion::kAscendingX},
      {"nn-y", PackStrategy::kNearestNeighbor, SortCriterion::kAscendingY},
      {"nn-hilbert", PackStrategy::kNearestNeighbor, SortCriterion::kHilbert},
      {"chunk-x", PackStrategy::kSortChunk, SortCriterion::kAscendingX},
      {"chunk-y", PackStrategy::kSortChunk, SortCriterion::kAscendingY},
      {"chunk-hilbert", PackStrategy::kSortChunk, SortCriterion::kHilbert},
      {"str", PackStrategy::kStr, SortCriterion::kAscendingX},
  };
  // Rows: each config with point inputs, then with rect inputs.
  // Columns: n = 1, B, B+1, 3000.
  const uint64_t kGolden[14][4] = {
      {0x401c970ede12c25c, 0x920f560386190d8b, 0x3bc190b4104157d2,
       0x5748a84dd1a2cb08},  // nn-x points
      {0x28628b95f97b2719, 0x096838bea34729af, 0xe32a12adc8093f44,
       0x2d4fd70a2efdb045},  // nn-x rects
      {0x401c970ede12c25c, 0x70268547c47ec9f7, 0x89e90ba33eb375b7,
       0x819f2f76a903ff6e},  // nn-y points
      {0x28628b95f97b2719, 0x1dbb9784f82eec88, 0x8ec99d30cd7ce201,
       0x2c2269ab0db4b50c},  // nn-y rects
      {0x401c970ede12c25c, 0x70268547c47ec9f7, 0x89e90ba33eb375b7,
       0x44df63a953222cc7},  // nn-hilbert points
      {0x28628b95f97b2719, 0x1dbb9784f82eec88, 0x7c209cd938fa2568,
       0x50db9eb63fe6f82e},  // nn-hilbert rects
      {0x401c970ede12c25c, 0x0923e56b8cf7bf80, 0xb193335ae9566605,
       0x0c2a6cd9e37d089d},  // chunk-x points
      {0x28628b95f97b2719, 0x34cbffc4e65a587e, 0x8c5ec91f1c1f14a1,
       0x2d07699ff5c286fc},  // chunk-x rects
      {0x401c970ede12c25c, 0x10b53807c78f685e, 0x0ef175d549a14ff6,
       0x55823b2ffb28e585},  // chunk-y points
      {0x28628b95f97b2719, 0x1d1f612b182b90bc, 0xf060c9b6c0b2f32e,
       0xb4e43012e41cfbb0},  // chunk-y rects
      {0x401c970ede12c25c, 0xbd34e7825590e8aa, 0x2f75ea3c57957234,
       0x6b0c04b7b7ad22dc},  // chunk-hilbert points
      {0x28628b95f97b2719, 0xaad4c2a2c3ce5d45, 0x2c18c7668e92af43,
       0xe101fe60eefbf985},  // chunk-hilbert rects
      {0x401c970ede12c25c, 0x10b53807c78f685e, 0x0ef175d549a14ff6,
       0xe7ab346ead2e2de5},  // str points
      {0x28628b95f97b2719, 0x1d1f612b182b90bc, 0xf060c9b6c0b2f32e,
       0x6d5efd35b88a85f6},  // str rects
  };

  for (size_t c = 0; c < std::size(kConfigs); ++c) {
    for (const bool rects : {false, true}) {
      for (size_t s = 0; s < std::size(sizes); ++s) {
        const std::vector<Entry> entries = rects
                                               ? SeededRects(102, sizes[s], 8.0)
                                               : SeededEntries(101, sizes[s]);
        PackOptions options;
        options.strategy = kConfigs[c].strategy;
        options.criterion = kConfigs[c].criterion;
        const DiskImage image =
            BuildImage(entries, [&](RTree* tree, const std::vector<Entry>& e) {
              PICTDB_CHECK_OK(Pack(tree, e, options));
            });
        const uint64_t digest = ImageDigest(image);
        EXPECT_EQ(digest, kGolden[2 * c + (rects ? 1 : 0)][s])
            << kConfigs[c].name << (rects ? " rects" : " points")
            << " n=" << sizes[s] << ": got 0x" << std::hex << digest;
      }
    }
  }
}

}  // namespace
}  // namespace pictdb::pack
