#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>

namespace pictdb::simd {

namespace {

std::atomic<const RectKernels*> g_override{nullptr};

// The env var mirrors the CMake option for binaries already built with
// vector kernels: CI's scalar-fallback leg uses the option, but operators
// can force a production binary onto the portable kernels without a
// rebuild. Both kernel selections below consult it.
bool SimdDisabledByEnv() {
  const char* env = std::getenv("PICTDB_DISABLE_SIMD");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

const RectKernels* PickKernels() {
  if (SimdDisabledByEnv()) return &ScalarKernels();
  if (const RectKernels* k = Avx2Kernels()) return k;
  if (const RectKernels* k = Sse2Kernels()) return k;
  return &ScalarKernels();
}

const Crc32Kernel* PickCrc32() {
  if (SimdDisabledByEnv()) return &Slice8Crc32();
  if (const Crc32Kernel* k = PclmulCrc32()) return k;
  return &Slice8Crc32();
}

const RectKernels& RuntimeKernels() {
  static const RectKernels* chosen = PickKernels();
  return *chosen;
}

}  // namespace

const RectKernels& ActiveKernels() {
  const RectKernels* forced = g_override.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  return RuntimeKernels();
}

bool SimdActive() { return &ActiveKernels() != &ScalarKernels(); }

const Crc32Kernel& ActiveCrc32() {
  static const Crc32Kernel* chosen = PickCrc32();
  return *chosen;
}

ScopedKernelOverride::ScopedKernelOverride(const RectKernels* kernels)
    : prev_(g_override.exchange(kernels, std::memory_order_acq_rel)) {}

ScopedKernelOverride::~ScopedKernelOverride() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace pictdb::simd
