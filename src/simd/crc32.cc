#include "simd/crc32.h"

#include <array>

namespace pictdb::simd {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic byte table for the reflected polynomial
// 0xEDB88320; tables[k][b] is the register after byte b followed by k
// zero bytes, which lets one step fold eight input bytes at once.
constexpr Crc32Tables MakeSlice8Tables() {
  Crc32Tables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = MakeSlice8Tables();

// Little-endian load by shifts, so the kernel is byte-order independent;
// compilers turn it into one unaligned load on little-endian targets.
inline uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

uint32_t Slice8Update(uint32_t state, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    state = kTables[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

const Crc32Kernel& Slice8Crc32() {
  static constexpr Crc32Kernel kSlice8{"slice8", &Slice8Update};
  return kSlice8;
}

}  // namespace pictdb::simd
