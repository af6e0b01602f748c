#ifndef PICTDB_STORAGE_PAGE_H_
#define PICTDB_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace pictdb::storage {

/// Identifier of a fixed-size page within a database file.
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Default page size. The R-tree derives its branching factor from this
/// unless an explicit cap is set (the paper's experiments cap it at 4).
inline constexpr uint32_t kDefaultPageSize = 4096;

// --- Page trailer (corruption detection) -----------------------------------
//
// The last kPageTrailerSize bytes of every on-disk page hold
//   { uint32 magic; uint32 crc32 }
// where the CRC covers the payload bytes [0, page_size - trailer). The
// buffer pool stamps the trailer on every flush and verifies it on every
// miss read, so torn writes and bit rot surface as Status::DataLoss
// instead of silent wrong answers. Page consumers address only the
// payload area (BufferPool::page_size() excludes the trailer).

inline constexpr uint32_t kPageTrailerSize = 8;
inline constexpr uint32_t kPageMagic = 0x50444231u;  // "PDB1"

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `n` bytes, computed by
/// the kernel simd::ActiveCrc32() picks (DESIGN.md §13); every kernel
/// gives the same value, so pages stay readable across builds and CPUs.
uint32_t Crc32(const char* data, size_t n);

/// Write the trailer over the last kPageTrailerSize bytes of `page`.
void StampPageTrailer(char* page, uint32_t page_size);

/// Check the trailer. OK for a stamped page whose CRC matches and for an
/// all-zero page (a freshly allocated page that was never flushed);
/// DataLoss otherwise. `page_id` only labels the error message.
Status VerifyPageTrailer(const char* page, uint32_t page_size,
                         PageId page_id = kInvalidPageId);

}  // namespace pictdb::storage

#endif  // PICTDB_STORAGE_PAGE_H_
