// PCLMULQDQ CRC-32 kernel, isolated in its own translation unit so the
// rest of the library never emits carry-less multiplies: the function
// carries the `target("pclmul,sse4.1")` attribute (no global -m flag),
// and PclmulCrc32() only hands it out after a cpuid check.
//
// The method is the bit-reflected folding of Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009): four 128-bit accumulators absorb 64 bytes per step,
// fold into one, absorb any remaining 16-byte blocks, shrink to 64 bits
// and end in a Barrett reduction to the 32-bit register. Inputs under
// 64 bytes and the tail past the last 16-byte block go through the
// slicing-by-8 kernel, so every length gives the portable value.

#include "simd/crc32.h"

#if defined(__x86_64__) && !defined(PICTDB_DISABLE_SIMD)

#include <immintrin.h>

namespace pictdb::simd {

namespace {

// Each fold constant is x^d mod P(x) for the fold distance d, bit-
// reflected and shifted left by one (the reflected-domain convention).
constexpr int64_t kFold4Lo = 0x154442BD4;  // d = 4*128 + 32
constexpr int64_t kFold4Hi = 0x1C6E41596;  // d = 4*128 - 32
constexpr int64_t kFold1Lo = 0x1751997D0;  // d = 128 + 32
constexpr int64_t kFold1Hi = 0x0CCAA009E;  // d = 128 - 32
constexpr int64_t kFold64 = 0x163CD6124;   // d = 64
// Barrett reduction: P(x) itself and mu = floor(x^64 / P(x)), both
// reflected to 33 bits.
constexpr int64_t kPoly = 0x1DB710641;
constexpr int64_t kMu = 0x1F7011641;

constexpr size_t kMinFoldBytes = 64;

// One fold step: carry-less multiply the accumulator's halves by the
// fold constants (lo by `k`'s low qword, hi by its high qword) and add
// in the next 16 data bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(
    __m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load(
    const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("pclmul,sse4.1"))) uint32_t PclmulUpdate(
    uint32_t state, const char* data, size_t n) {
  if (n < kMinFoldBytes) return Slice8Crc32().update(state, data, n);
  const char* p = data;
  const char* const blocks_end = data + (n & ~size_t{15});

  __m128i a0 = _mm_xor_si128(Load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i a1 = Load(p + 16);
  __m128i a2 = Load(p + 32);
  __m128i a3 = Load(p + 48);
  p += 64;

  const __m128i fold4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; blocks_end - p >= 64; p += 64) {
    a0 = Fold(a0, fold4, Load(p));
    a1 = Fold(a1, fold4, Load(p + 16));
    a2 = Fold(a2, fold4, Load(p + 32));
    a3 = Fold(a3, fold4, Load(p + 48));
  }

  const __m128i fold1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  __m128i acc = Fold(a0, fold1, a1);
  acc = Fold(acc, fold1, a2);
  acc = Fold(acc, fold1, a3);
  for (; p != blocks_end; p += 16) acc = Fold(acc, fold1, Load(p));

  // 128 -> 96 bits: the low qword times x^(128-32), added to the high.
  const __m128i low32_mask = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, fold1, 0x10));
  // 96 -> 64 bits: the low dword times x^64, added to the rest.
  const __m128i fold64 = _mm_set_epi64x(0, kFold64);
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32_mask), fold64, 0x00));

  // Barrett: q = (low dword * mu) mod x^32; register = acc ^ q * P,
  // which lands in dword 1.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32_mask), barrett,
                                   0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32_mask), barrett, 0x00);
  state = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));

  return Slice8Crc32().update(state, blocks_end,
                              static_cast<size_t>(data + n - blocks_end));
}

}  // namespace

const Crc32Kernel* PclmulCrc32() {
  static const bool supported = __builtin_cpu_supports("pclmul") != 0 &&
                                __builtin_cpu_supports("sse4.1") != 0;
  if (!supported) return nullptr;
  static constexpr Crc32Kernel kPclmul{"pclmul", &PclmulUpdate};
  return &kPclmul;
}

}  // namespace pictdb::simd

#else  // !x86-64 or PICTDB_DISABLE_SIMD

namespace pictdb::simd {

const Crc32Kernel* PclmulCrc32() { return nullptr; }

}  // namespace pictdb::simd

#endif
