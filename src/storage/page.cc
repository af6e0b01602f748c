#include "storage/page.h"

#include <cstring>
#include <string>

#include "simd/dispatch.h"

namespace pictdb::storage {

uint32_t Crc32(const char* data, size_t n) {
  return simd::ActiveCrc32().update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

void StampPageTrailer(char* page, uint32_t page_size) {
  const uint32_t payload = page_size - kPageTrailerSize;
  const uint32_t crc = Crc32(page, payload);
  std::memcpy(page + payload, &kPageMagic, 4);
  std::memcpy(page + payload + 4, &crc, 4);
}

Status VerifyPageTrailer(const char* page, uint32_t page_size,
                         PageId page_id) {
  const uint32_t payload = page_size - kPageTrailerSize;
  uint32_t magic, stored_crc;
  std::memcpy(&magic, page + payload, 4);
  std::memcpy(&stored_crc, page + payload + 4, 4);
  if (magic == kPageMagic) {
    const uint32_t actual = Crc32(page, payload);
    if (actual == stored_crc) return Status::OK();
    return Status::DataLoss("checksum mismatch on page " +
                            std::to_string(page_id));
  }
  // A page that was allocated but never flushed is all zeros; accept it.
  for (uint32_t i = 0; i < page_size; ++i) {
    if (page[i] != 0) {
      return Status::DataLoss("unrecognized page trailer on page " +
                              std::to_string(page_id));
    }
  }
  return Status::OK();
}

}  // namespace pictdb::storage
