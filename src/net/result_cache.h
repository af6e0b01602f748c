#ifndef PICTDB_NET_RESULT_CACHE_H_
#define PICTDB_NET_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "net/protocol.h"

namespace pictdb::net {

/// Plain-value image of the cache counters.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;      // capacity-pressure removals
  uint64_t invalidations = 0;  // epoch bumps
  uint64_t bytes = 0;          // resident payload bytes
  uint64_t entries = 0;        // resident entry count
};

/// Sharded LRU cache of encoded query responses, keyed by canonicalized
/// request frames (protocol.h CacheKey). The stored value is the exact
/// response payload that was first computed, so a hit replays a
/// byte-identical response with only the frame header's kFlagCached bit
/// differing — which is what makes cache correctness cheaply testable.
///
/// Invalidation contract: the cache answers for one tree epoch. Any
/// mutation of the served tree must call BumpEpoch(). With online
/// writes enabled (ServerOptions::allow_writes) that happens
/// automatically: the server installs a service commit hook, so every
/// committed insert/delete/update bumps the epoch after its WAL fsync
/// and before the write is acked. The admin kInvalidate message remains
/// as the manual override. Entries from older epochs are treated as
/// misses and reclaimed lazily. Degraded (partial) responses must never
/// be inserted — the server only caches complete OK answers.
///
/// Thread-safe: keys hash to one of `shards` independently locked
/// shards, so lookups and insertions from the serving threads contend
/// only within a shard.
class ResultCache {
 public:
  /// `capacity_bytes` bounds the sum of cached payload bytes across all
  /// shards (0 disables caching: every Lookup misses, Insert drops).
  explicit ResultCache(size_t capacity_bytes, size_t shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit: copies the stored response payload into `payload_out`,
  /// refreshes LRU recency, and returns true.
  bool Lookup(const std::string& key, std::string* payload_out);

  /// Stores `payload` under `key` (overwriting any same-epoch entry),
  /// then evicts least-recently-used entries until the shard is within
  /// its byte budget. Oversized payloads (larger than a shard's entire
  /// budget) are not cached.
  void Insert(const std::string& key, const std::string& payload);

  /// Invalidate everything previously inserted (whole-cache epoch bump).
  void BumpEpoch();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  ResultCacheStats Stats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string payload;
    uint64_t epoch = 0;
    std::list<std::string>::iterator lru_pos;  // into Shard::lru
  };

  struct Shard {
    mutable Mutex mu;
    /// Most-recent first; holds the keys.
    std::list<std::string> lru GUARDED_BY(mu);
    std::unordered_map<std::string, Entry> map GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;

    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard& ShardFor(const std::string& key);
  /// Drop `it` from `shard` (map + lru + byte accounting).
  static void EraseLocked(Shard* shard,
                          std::unordered_map<std::string, Entry>::iterator it)
      REQUIRES(shard->mu);

  const size_t capacity_bytes_;
  const size_t shard_capacity_bytes_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> invalidations_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pictdb::net

#endif  // PICTDB_NET_RESULT_CACHE_H_
