#ifndef LSMLAB_CACHE_LRU_CACHE_H_
#define LSMLAB_CACHE_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/slice.h"

namespace lsmlab {

/// Aggregate cache counters; the block-cache experiments (E12) report the
/// hit ratio under compaction churn.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded LRU cache charging entries by byte size — the block cache of
/// tutorial §2.1.3. Values are type-erased shared_ptrs so evicted entries
/// stay alive while readers hold them. Thread-safe.
///
/// Built the way LevelDB builds its LRU cache: an entry is one allocation
/// holding its key bytes, linked into its shard's LRU list and into a
/// chained hash table. One 64-bit hash per call picks the shard (low bits)
/// and the bucket (high bits). Insert allocates once; Lookup, Erase and
/// eviction allocate nothing, and entries leave the shard lock before they
/// are freed.
class LruCache {
 public:
  /// Shard count used when the caller passes 0: the smallest power of two
  /// >= hardware_concurrency, clamped to [4, 64].
  static int DefaultShardCount();

  /// `capacity` is the total byte budget across all shards. `num_shards`
  /// is rounded up to a power of two (shards are mask-indexed); 0 means
  /// DefaultShardCount().
  explicit LruCache(size_t capacity, int num_shards = 0);
  ~LruCache();

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Inserts (or replaces) `key`; `charge` is the entry's byte cost.
  void Insert(const Slice& key, std::shared_ptr<const void> value,
              size_t charge);

  /// Returns the cached value or nullptr, promoting the entry to MRU.
  std::shared_ptr<const void> Lookup(const Slice& key);

  void Erase(const Slice& key);

  /// Drops everything (used to model cache-wiping events in experiments).
  void Prune();

  size_t usage() const;
  size_t capacity() const { return capacity_; }
  int num_shards() const { return num_shards_; }
  /// Entries currently held by shard `index`; for shard-distribution tests.
  size_t ShardEntryCount(int index) const;
  CacheStats GetStats() const;
  void ResetStats();

 private:
  struct Entry;
  struct Shard;

  /// The shard `hash` maps to; its high bits are left for the bucket.
  Shard& ShardFor(uint64_t hash) const;

  const size_t capacity_;
  const int num_shards_;
  const std::unique_ptr<Shard[]> shards_;
};

}  // namespace lsmlab

#endif  // LSMLAB_CACHE_LRU_CACHE_H_
