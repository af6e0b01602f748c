// Figure 3.3 reproduction: "Answering the query 'List all cities within
// region W' may require substantially more searching than is tolerable,
// because region W intersects all the root entries and the search cannot
// yet be pruned."
//
// We construct a tree whose root entries all overlap the middle of the
// picture (by bulk-building a deliberately bad grouping), put window W
// there, and compare against the PACKed tree over the same data.

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "pack/pack.h"
#include "workload/generators.h"

namespace {

using pictdb::Random;
using pictdb::bench::PointEntries;
using pictdb::bench::TreeEnv;
using pictdb::geom::Point;
using pictdb::geom::Rect;
using pictdb::rtree::Entry;

}  // namespace

int main() {
  Random rng(33);
  const Rect frame = pictdb::workload::PaperFrame();
  const auto pts = pictdb::workload::UniformPoints(&rng, 1024, frame);

  pictdb::rtree::RTreeOptions opts;
  opts.max_entries = 4;
  opts.min_entries = 2;

  // Bad tree: group entries round-robin so every node at every level
  // draws members from all over the picture — every MBR spans the whole
  // frame, which is exactly the root-overlap pathology of Fig 3.3.
  // Written node by node, since no packer would group this badly.
  TreeEnv bad = TreeEnv::Make(opts, 256);
  std::vector<Entry> items = PointEntries(pts);
  uint16_t level = 0;
  while (items.size() > opts.max_entries) {
    const size_t groups_count =
        (items.size() + opts.max_entries - 1) / opts.max_entries;
    std::vector<std::vector<Entry>> groups(groups_count);
    for (size_t i = 0; i < items.size(); ++i) {
      groups[i % groups_count].push_back(items[i]);
    }
    std::vector<Entry> parents;
    for (const std::vector<Entry>& group : groups) {
      auto page = bad.tree->BulkWriteNode(level, group);
      PICTDB_CHECK(page.ok());
      Entry parent;
      for (const Entry& e : group) parent.mbr.ExpandToInclude(e.mbr);
      parent.payload = Entry::PayloadFromChild(*page);
      parents.push_back(parent);
    }
    items = std::move(parents);
    ++level;
  }
  auto root = bad.tree->BulkWriteNode(level, items);
  PICTDB_CHECK(root.ok());
  PICTDB_CHECK_OK(bad.tree->BulkSetRoot(*root, level + 1u, pts.size()));

  TreeEnv good = TreeEnv::Make(opts, 256);
  PICTDB_CHECK_OK(
      pictdb::pack::Pack(good.tree.get(), PointEntries(pts)));

  const Rect window = Rect::FromCenterHalfExtent(500, 50, 500, 50);
  pictdb::rtree::SearchStats bad_stats, good_stats;
  auto bad_hits = bad.tree->SearchIntersects(window, &bad_stats);
  auto good_hits = good.tree->SearchIntersects(window, &good_stats);
  PICTDB_CHECK(bad_hits.ok() && good_hits.ok());
  PICTDB_CHECK(bad_hits->size() == good_hits->size());

  auto bad_nodes = bad.tree->CountNodes();
  auto good_nodes = good.tree->CountNodes();
  PICTDB_CHECK(bad_nodes.ok() && good_nodes.ok());

  std::printf("query window W = %s, %zu qualifying cities\n\n",
              pictdb::geom::ToString(window).c_str(), bad_hits->size());
  std::printf("%-28s %12s %12s %14s\n", "tree", "total nodes",
              "visited", "entries tested");
  std::printf("%-28s %12llu %12llu %14llu\n",
              "overlapping root (Fig 3.3)",
              static_cast<unsigned long long>(*bad_nodes),
              static_cast<unsigned long long>(bad_stats.nodes_visited),
              static_cast<unsigned long long>(bad_stats.entries_tested));
  std::printf("%-28s %12llu %12llu %14llu\n", "PACKed tree",
              static_cast<unsigned long long>(*good_nodes),
              static_cast<unsigned long long>(good_stats.nodes_visited),
              static_cast<unsigned long long>(good_stats.nodes_visited
                                                  ? good_stats.entries_tested
                                                  : 0));

  PICTDB_CHECK(bad_stats.nodes_visited > 10 * good_stats.nodes_visited);
  std::printf(
      "\nWith every root/internal MBR overlapping W the search visits "
      "essentially the\nwhole tree (%llu of %llu nodes); the packed tree "
      "prunes all but %llu. This is\nwhy coverage and overlap are the "
      "paper's quality measures.\n",
      static_cast<unsigned long long>(bad_stats.nodes_visited),
      static_cast<unsigned long long>(*bad_nodes),
      static_cast<unsigned long long>(good_stats.nodes_visited));
  return 0;
}
