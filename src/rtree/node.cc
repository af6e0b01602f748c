#include "rtree/node.h"

#include <atomic>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "simd/dispatch.h"

namespace pictdb::rtree {

namespace {

// Page layout: { uint16 level; uint16 count; 4B pad }, then `count`
// packed entries of { double x_lo, y_lo, x_hi, y_hi; uint64 payload }.
constexpr size_t kNodeHeaderSize = 8;
constexpr size_t kEntrySize = 4 * sizeof(double) + sizeof(uint64_t);

std::atomic<uint64_t> g_mbr_computes{0};

Status CheckCount(uint16_t count, uint32_t page_size) {
  if (count <= NodePageCapacity(page_size)) return Status::OK();
  return Status::Corruption("corrupt R-tree node: count " +
                            std::to_string(count));
}

}  // namespace

geom::Rect Node::Mbr() const {
  g_mbr_computes.fetch_add(1, std::memory_order_relaxed);
  geom::Rect r;
  for (const Entry& e : entries) r.ExpandToInclude(e.mbr);
  return r;
}

geom::Rect SoaNode::Mbr() const {
  g_mbr_computes.fetch_add(1, std::memory_order_relaxed);
  geom::Rect r;
  for (size_t i = 0; i < count(); ++i) r.ExpandToInclude(RectAt(i));
  return r;
}

uint64_t MbrComputeCountForTesting() {
  return g_mbr_computes.load(std::memory_order_relaxed);
}

size_t NodePageCapacity(uint32_t page_size) {
  return (page_size - kNodeHeaderSize) / kEntrySize;
}

StatusOr<Node> ReadNode(const char* page, uint32_t page_size) {
  Node node;
  uint16_t count;
  std::memcpy(&node.level, page, 2);
  std::memcpy(&count, page + 2, 2);
  PICTDB_RETURN_IF_ERROR(CheckCount(count, page_size));
  node.entries.resize(count);
  const char* p = page + kNodeHeaderSize;
  for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
    Entry& e = node.entries[i];
    std::memcpy(&e.mbr.lo.x, p, 8);
    std::memcpy(&e.mbr.lo.y, p + 8, 8);
    std::memcpy(&e.mbr.hi.x, p + 16, 8);
    std::memcpy(&e.mbr.hi.y, p + 24, 8);
    std::memcpy(&e.payload, p + 32, 8);
  }
  return node;
}

Status ReadNodeSoa(const char* page, uint32_t page_size, SoaNode* out) {
  uint16_t count;
  std::memcpy(&out->level, page, 2);
  std::memcpy(&count, page + 2, 2);
  PICTDB_RETURN_IF_ERROR(CheckCount(count, page_size));
  out->xmin.resize(count);
  out->ymin.resize(count);
  out->xmax.resize(count);
  out->ymax.resize(count);
  out->payloads.resize(count);
  // The AoS->SoA shuffle is the dominant per-node decode cost, so it is
  // dispatched with the rect kernels (pure data movement — every family
  // is bit-preserving, see simd/rect_kernels.h).
  simd::ActiveKernels().transpose(page + kNodeHeaderSize, count,
                                  out->xmin.data(), out->ymin.data(),
                                  out->xmax.data(), out->ymax.data(),
                                  out->payloads.data());
  return Status::OK();
}

void WriteNode(const Node& node, char* page, uint32_t page_size) {
  PICTDB_CHECK(node.entries.size() <= NodePageCapacity(page_size))
      << "R-tree node overflow: " << node.entries.size() << " entries";
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(page, &node.level, 2);
  std::memcpy(page + 2, &count, 2);
  std::memset(page + 4, 0, 4);
  char* p = page + kNodeHeaderSize;
  for (const Entry& e : node.entries) {
    std::memcpy(p, &e.mbr.lo.x, 8);
    std::memcpy(p + 8, &e.mbr.lo.y, 8);
    std::memcpy(p + 16, &e.mbr.hi.x, 8);
    std::memcpy(p + 24, &e.mbr.hi.y, 8);
    std::memcpy(p + 32, &e.payload, 8);
    p += kEntrySize;
  }
}

}  // namespace pictdb::rtree
