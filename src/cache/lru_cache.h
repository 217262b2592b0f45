#ifndef LSMLAB_CACHE_LRU_CACHE_H_
#define LSMLAB_CACHE_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/slice.h"
#include "util/thread_annotations.h"

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
class LruCache {
 public:
  /// Shard count used when the caller passes 0: the smallest power of two
  /// >= hardware_concurrency, clamped to [4, 64].
  static int DefaultShardCount();

  /// `capacity` is the total byte budget across all shards. `num_shards`
  /// is rounded up to a power of two (shards are mask-indexed); 0 means
  /// DefaultShardCount().
  explicit LruCache(size_t capacity, int num_shards = 0);

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
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Entries currently held by shard `index`; for shard-distribution tests.
  size_t ShardEntryCount(int index) const;
  CacheStats GetStats() const;
  void ResetStats();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    size_t charge;
  };

  /// Transparent, so lookups hash a Slice's bytes in place: a block-cache
  /// key is 16 bytes, past the 15-byte small-string buffer, and building a
  /// std::string for each probe would cost a malloc and a free.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  struct Shard {
    mutable Mutex mu{LockRank::kBlockCacheShard, "block_cache.shard.mu"};
    std::list<Entry> lru GUARDED_BY(mu);  // Front = MRU.
    std::unordered_map<std::string, std::list<Entry>::iterator, KeyHash,
                       std::equal_to<>>
        index GUARDED_BY(mu);
    size_t usage GUARDED_BY(mu) = 0;
    size_t capacity = 0;  // Set once at construction; read-only afterwards.
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t inserts GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;

    void EvictIfNeeded() REQUIRES(mu);
  };

  Shard& ShardFor(const Slice& key);

  const size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lsmlab

#endif  // LSMLAB_CACHE_LRU_CACHE_H_
