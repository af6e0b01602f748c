#ifndef PICTDB_SIMD_CRC32_H_
#define PICTDB_SIMD_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace pictdb::simd {

/// A CRC-32 kernel: the IEEE 802.3 polynomial, bit-reflected (the zlib /
/// gzip / PNG CRC). `update` advances the raw CRC register `state` over
/// `n` bytes; a whole-buffer CRC starts the register at 0xFFFFFFFF and
/// inverts the result, which storage::Crc32 does for its callers.
///
/// Every kernel returns the same value for every input (enforced by
/// tests/crc32_test against a bitwise reference), so the choice affects
/// throughput only, never a page trailer, WAL frame or anchor.
struct Crc32Kernel {
  const char* name;
  uint32_t (*update)(uint32_t state, const char* data, size_t n);
};

/// Portable slicing-by-8 kernel: eight bytes per step through eight
/// compile-time tables. Runs everywhere; also finishes the short inputs
/// and tails the folding kernel leaves.
const Crc32Kernel& Slice8Crc32();

/// PCLMULQDQ kernel: folds four 128-bit lanes per 64-byte step and ends
/// in a Barrett reduction. nullptr when the binary was built with
/// PICTDB_DISABLE_SIMD, the target is not x86-64, or this CPU lacks
/// PCLMULQDQ or SSE4.1.
const Crc32Kernel* PclmulCrc32();

}  // namespace pictdb::simd

#endif  // PICTDB_SIMD_CRC32_H_
