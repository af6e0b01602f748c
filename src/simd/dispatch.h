#ifndef PICTDB_SIMD_DISPATCH_H_
#define PICTDB_SIMD_DISPATCH_H_

#include "simd/crc32.h"
#include "simd/rect_kernels.h"

namespace pictdb::simd {

/// The kernel family the search hot path should use, chosen once at
/// first call (thread-safe) by the rules in DESIGN.md §13:
///
///   1. built with -DPICTDB_DISABLE_SIMD=ON        -> scalar
///   2. env var PICTDB_DISABLE_SIMD set non-"0"    -> scalar
///   3. CPU supports AVX2                          -> avx2
///   4. x86-64 baseline                            -> sse2
///   5. anything else                              -> scalar
///
/// All families are bit-identical (enforced by tests/simd_kernel_test),
/// so the choice affects throughput only, never results.
const RectKernels& ActiveKernels();

/// True when ActiveKernels() resolved to a vector family.
bool SimdActive();

/// The CRC-32 kernel storage::Crc32 forwards to, chosen once at first
/// call (thread-safe) by the same rules as ActiveKernels():
///
///   1. built with -DPICTDB_DISABLE_SIMD=ON        -> slice8
///   2. env var PICTDB_DISABLE_SIMD set non-"0"    -> slice8
///   3. CPU supports PCLMULQDQ and SSE4.1          -> pclmul
///   4. anything else                              -> slice8
///
/// Every kernel returns the same values (tests/crc32_test), so the
/// choice never changes a byte on disk.
const Crc32Kernel& ActiveCrc32();

/// Test-only: force every subsequent ActiveKernels() call to return
/// `kernels` until destruction (nullptr restores the runtime choice).
/// The golden determinism tests use this to replay identical query
/// streams through the scalar and vector paths inside one process.
/// Not for concurrent use with live traffic.
class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const RectKernels* kernels);
  ~ScopedKernelOverride();

  ScopedKernelOverride(const ScopedKernelOverride&) = delete;
  ScopedKernelOverride& operator=(const ScopedKernelOverride&) = delete;

 private:
  const RectKernels* prev_;
};

}  // namespace pictdb::simd

#endif  // PICTDB_SIMD_DISPATCH_H_
