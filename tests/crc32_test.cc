// CRC-32 kernel tests: known answers, an exhaustive differential check
// of every available kernel against a bitwise reference (every length
// 0..4096 at every start alignment 0..15), and the on-disk consumers —
// page trailers, WAL frames and WAL anchors — carry exactly the
// reference bytes, so no kernel can change a stored checksum.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "simd/crc32.h"
#include "simd/dispatch.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace pictdb {
namespace {

using simd::Crc32Kernel;

constexpr size_t kMaxLength = 4096;
constexpr size_t kAlignments = 16;
constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kPayload = kPageSize - storage::kPageTrailerSize;

/// Bit-at-a-time reference straight from the polynomial — deliberately
/// no table, so it shares nothing with the kernels under test.
uint32_t BitwiseUpdate(uint32_t state, unsigned char byte) {
  state ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1u)));
  }
  return state;
}

uint32_t BitwiseCrc32(const char* data, size_t n) {
  uint32_t state = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    state = BitwiseUpdate(state, static_cast<unsigned char>(data[i]));
  }
  return ~state;
}

uint32_t KernelCrc32(const Crc32Kernel& kernel, const char* data, size_t n) {
  return ~kernel.update(0xFFFFFFFFu, data, n);
}

/// Every kernel this binary and CPU can run, portable first.
std::vector<const Crc32Kernel*> Kernels() {
  std::vector<const Crc32Kernel*> kernels = {&simd::Slice8Crc32()};
  if (simd::PclmulCrc32() != nullptr) kernels.push_back(simd::PclmulCrc32());
  return kernels;
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Random rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
  return bytes;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

TEST(Crc32KnownAnswer, CheckString) {
  EXPECT_EQ(BitwiseCrc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  for (const Crc32Kernel* kernel : Kernels()) {
    SCOPED_TRACE(kernel->name);
    EXPECT_EQ(KernelCrc32(*kernel, "123456789", 9), 0xCBF43926u);
  }
}

TEST(Crc32KnownAnswer, EmptyInputIsZero) {
  EXPECT_EQ(BitwiseCrc32(nullptr, 0), 0u);
  EXPECT_EQ(storage::Crc32(nullptr, 0), 0u);
  for (const Crc32Kernel* kernel : Kernels()) {
    SCOPED_TRACE(kernel->name);
    EXPECT_EQ(KernelCrc32(*kernel, nullptr, 0), 0u);
  }
}

// The payload of a never-written page: long enough for every folding
// step, and zeros give the folding arithmetic no help.
TEST(Crc32KnownAnswer, AllZeroPagePayload) {
  const std::string zeros(kPayload, '\0');
  EXPECT_EQ(BitwiseCrc32(zeros.data(), zeros.size()), 0xA4B68F86u);
  EXPECT_EQ(storage::Crc32(zeros.data(), zeros.size()), 0xA4B68F86u);
  for (const Crc32Kernel* kernel : Kernels()) {
    SCOPED_TRACE(kernel->name);
    EXPECT_EQ(KernelCrc32(*kernel, zeros.data(), zeros.size()), 0xA4B68F86u);
  }
}

// Every length 0..4096 at every start alignment 0..15. The same bytes sit
// at each alignment, so one reference pass yields every prefix's CRC.
TEST(Crc32Differential, EveryLengthAndAlignmentMatchesBitwise) {
  const std::string pattern = RandomBytes(1985, kMaxLength);
  std::vector<uint32_t> expected(kMaxLength + 1);
  uint32_t state = 0xFFFFFFFFu;
  expected[0] = ~state;
  for (size_t len = 1; len <= kMaxLength; ++len) {
    state = BitwiseUpdate(state, static_cast<unsigned char>(pattern[len - 1]));
    expected[len] = ~state;
  }

  std::vector<char> buffer(kMaxLength + kAlignments);
  for (const Crc32Kernel* kernel : Kernels()) {
    SCOPED_TRACE(kernel->name);
    for (size_t align = 0; align < kAlignments; ++align) {
      char* start = buffer.data() + align;
      std::memcpy(start, pattern.data(), kMaxLength);
      size_t mismatches = 0;
      for (size_t len = 0; len <= kMaxLength; ++len) {
        if (KernelCrc32(*kernel, start, len) != expected[len] &&
            ++mismatches <= 3) {
          ADD_FAILURE() << "align " << align << " length " << len;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "align " << align;
    }
  }
}

// Feeding a buffer in pieces gives the one-shot value: each kernel's
// register is the plain CRC state, so callers may chain updates.
TEST(Crc32Differential, ChainedUpdatesMatchOneShot) {
  const std::string bytes = RandomBytes(7, 3000);
  const uint32_t expected = BitwiseCrc32(bytes.data(), bytes.size());
  for (const Crc32Kernel* kernel : Kernels()) {
    SCOPED_TRACE(kernel->name);
    for (size_t split : {0, 1, 63, 64, 100, 1024, 2999, 3000}) {
      uint32_t state = kernel->update(0xFFFFFFFFu, bytes.data(), split);
      state = kernel->update(state, bytes.data() + split, bytes.size() - split);
      EXPECT_EQ(~state, expected) << "split " << split;
    }
  }
}

// Inputs that end exactly at the end of a heap block: a kernel reading
// past its last byte trips the address sanitizer here.
TEST(Crc32Differential, InputsEndingAtAllocationEnd) {
  for (size_t len = 0; len <= 300; ++len) {
    const std::string source = RandomBytes(len, len);
    std::vector<char> exact(source.begin(), source.end());
    const uint32_t expected = BitwiseCrc32(exact.data(), exact.size());
    for (const Crc32Kernel* kernel : Kernels()) {
      EXPECT_EQ(KernelCrc32(*kernel, exact.data(), exact.size()), expected)
          << kernel->name << " length " << len;
    }
  }
}

TEST(Crc32Dispatch, FollowsTheSimdRules) {
  const char* env = std::getenv("PICTDB_DISABLE_SIMD");
  const bool env_off = env != nullptr && env[0] != '\0' &&
                       std::string(env) != "0";
  const Crc32Kernel* expected = simd::PclmulCrc32();
  if (env_off || expected == nullptr) expected = &simd::Slice8Crc32();
  EXPECT_EQ(&simd::ActiveCrc32(), expected) << simd::ActiveCrc32().name;
#ifdef PICTDB_DISABLE_SIMD
  EXPECT_EQ(simd::PclmulCrc32(), nullptr);
#endif
}

TEST(Crc32PageTrailer, StampWritesReferenceChecksum) {
  std::string page = RandomBytes(42, kPageSize);
  storage::StampPageTrailer(page.data(), kPageSize);
  EXPECT_EQ(LoadU32(page.data() + kPayload), storage::kPageMagic);
  EXPECT_EQ(LoadU32(page.data() + kPayload + 4),
            BitwiseCrc32(page.data(), kPayload));
  EXPECT_TRUE(storage::VerifyPageTrailer(page.data(), kPageSize).ok());

  page[kPayload / 2] ^= 0x10;
  EXPECT_TRUE(
      storage::VerifyPageTrailer(page.data(), kPageSize).IsDataLoss());
}

// The WAL bypasses the page trailer and frames records itself; both the
// record frame and the anchor slot must carry reference CRCs.
TEST(Crc32WalFrame, FrameAndAnchorCarryReferenceChecksums) {
  storage::InMemoryDiskManager disk(kPageSize);
  auto wal = wal::Wal::Create(&disk);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  wal::Record chunk;
  chunk.type = wal::RecordType::kSnapshotChunk;
  chunk.lsn = 1;
  for (uint64_t i = 0; i < 21; ++i) {
    const double x = static_cast<double>(i);
    chunk.entries.push_back({geom::Rect(x, x, x + 0.5, x + 2), i * 977});
  }
  ASSERT_TRUE(wal->Append(chunk).ok());
  const std::string payload = wal::EncodeRecordPayload(chunk);
  ASSERT_GT(payload.size(), 64u);  // long enough to take the folding path

  // Create allocates the anchor first and the chain head right after it.
  const storage::PageId anchor = wal->anchor_page();
  std::string page(kPageSize, '\0');
  ASSERT_TRUE(disk.ReadPage(anchor + 1, page.data()).ok());
  const char* frame = page.data() + 8;  // past [magic][next_page]
  ASSERT_EQ(LoadU32(frame), payload.size());
  EXPECT_EQ(std::memcmp(frame + 8, payload.data(), payload.size()), 0);
  EXPECT_EQ(LoadU32(frame + 4), BitwiseCrc32(payload.data(), payload.size()));

  // Anchor slot 0: [magic][crc][generation u64][head u32][pad u32], the
  // CRC covering the 16 bytes after it.
  ASSERT_TRUE(disk.ReadPage(anchor, page.data()).ok());
  EXPECT_EQ(LoadU32(page.data() + 4), BitwiseCrc32(page.data() + 8, 16));
}

}  // namespace
}  // namespace pictdb
