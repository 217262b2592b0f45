#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/lru_cache.h"

namespace lsmlab {
namespace {

std::shared_ptr<const void> Val(int v) {
  return std::make_shared<int>(v);
}

int Get(const std::shared_ptr<const void>& p) {
  return *static_cast<const int*>(p.get());
}

TEST(LruCacheTest, InsertAndLookup) {
  LruCache cache(1024, 1);
  cache.Insert("a", Val(1), 10);
  auto hit = cache.Lookup("a");
  ASSERT_NE(nullptr, hit);
  EXPECT_EQ(1, Get(hit));
  EXPECT_EQ(nullptr, cache.Lookup("missing"));
}

TEST(LruCacheTest, ReplaceUpdatesValueAndCharge) {
  LruCache cache(1024, 1);
  cache.Insert("a", Val(1), 10);
  cache.Insert("a", Val(2), 20);
  EXPECT_EQ(2, Get(cache.Lookup("a")));
  EXPECT_EQ(20u, cache.usage());
}

TEST(LruCacheTest, EvictsLruWhenOverCapacity) {
  LruCache cache(100, 1);
  cache.Insert("a", Val(1), 40);
  cache.Insert("b", Val(2), 40);
  // Touch "a" so "b" is the LRU entry.
  cache.Lookup("a");
  cache.Insert("c", Val(3), 40);  // Exceeds capacity; evicts "b".
  EXPECT_NE(nullptr, cache.Lookup("a"));
  EXPECT_EQ(nullptr, cache.Lookup("b"));
  EXPECT_NE(nullptr, cache.Lookup("c"));
  EXPECT_LE(cache.usage(), 100u);
}

TEST(LruCacheTest, OversizedEntryIsEvictedImmediately) {
  LruCache cache(100, 1);
  cache.Insert("huge", Val(1), 500);
  EXPECT_EQ(nullptr, cache.Lookup("huge"));
  EXPECT_EQ(0u, cache.usage());
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(1024, 1);
  cache.Insert("a", Val(1), 10);
  cache.Erase("a");
  EXPECT_EQ(nullptr, cache.Lookup("a"));
  EXPECT_EQ(0u, cache.usage());
  cache.Erase("a");  // Erasing a missing key is a no-op.
}

TEST(LruCacheTest, PruneDropsEverything) {
  LruCache cache(1024, 4);
  for (int i = 0; i < 20; ++i) {
    cache.Insert("k" + std::to_string(i), Val(i), 10);
  }
  EXPECT_GT(cache.usage(), 0u);
  cache.Prune();
  EXPECT_EQ(0u, cache.usage());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(nullptr, cache.Lookup("k" + std::to_string(i)));
  }
}

TEST(LruCacheTest, StatsTrackHitsMissesEvictions) {
  LruCache cache(100, 1);
  cache.Insert("a", Val(1), 60);
  cache.Lookup("a");
  cache.Lookup("b");
  cache.Insert("c", Val(2), 60);  // Evicts "a".
  CacheStats stats = cache.GetStats();
  EXPECT_EQ(1u, stats.hits);
  // "b" lookup missed; Lookup on evicted "a" below also misses.
  EXPECT_EQ(nullptr, cache.Lookup("a"));
  stats = cache.GetStats();
  EXPECT_EQ(2u, stats.misses);
  EXPECT_EQ(2u, stats.inserts);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_NEAR(stats.HitRatio(), 1.0 / 3.0, 1e-9);

  cache.ResetStats();
  stats = cache.GetStats();
  EXPECT_EQ(0u, stats.hits + stats.misses + stats.inserts + stats.evictions);
}

TEST(LruCacheTest, EvictedValueSurvivesWhileHeld) {
  LruCache cache(100, 1);
  cache.Insert("a", Val(42), 80);
  auto held = cache.Lookup("a");
  cache.Insert("b", Val(2), 80);  // Evicts "a".
  EXPECT_EQ(nullptr, cache.Lookup("a"));
  // The shared_ptr keeps the value alive for this reader.
  EXPECT_EQ(42, Get(held));
}

TEST(LruCacheTest, ShardedCacheDistributes) {
  LruCache cache(4000, 8);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), Val(i), 10);
  }
  int found = 0;
  for (int i = 0; i < 100; ++i) {
    if (cache.Lookup("key" + std::to_string(i)) != nullptr) {
      ++found;
    }
  }
  // Capacity 4000 over 8 shards = 500/shard; all 100x10-byte entries fit
  // unless hashing is pathologically skewed.
  EXPECT_EQ(100, found);
}

TEST(LruCacheTest, ZeroCapacityHoldsNothing) {
  LruCache cache(0, 1);
  cache.Insert("a", Val(1), 1);
  EXPECT_EQ(nullptr, cache.Lookup("a"));
}

TEST(LruCacheTest, ShardCountKnob) {
  // Explicit counts are kept (power of two) or rounded up to one.
  EXPECT_EQ(8, LruCache(1024, 8).num_shards());
  EXPECT_EQ(8, LruCache(1024, 5).num_shards());
  EXPECT_EQ(1, LruCache(1024, 1).num_shards());
  // 0 = auto: scaled to hardware concurrency, always a power of two and
  // never below the old hardcoded 4.
  LruCache auto_cache(1024, 0);
  int n = auto_cache.num_shards();
  EXPECT_GE(n, 4);
  EXPECT_LE(n, 64);
  EXPECT_EQ(0, n & (n - 1));
  EXPECT_EQ(n, LruCache::DefaultShardCount());
}

TEST(LruCacheTest, ShardDistributionCoversMultipleShards) {
  LruCache cache(1 << 20, 16);
  constexpr int kEntries = 2000;
  for (int i = 0; i < kEntries; ++i) {
    cache.Insert("spread-key-" + std::to_string(i), Val(i), 10);
  }
  size_t total = 0;
  int populated = 0;
  size_t max_per_shard = 0;
  for (int s = 0; s < cache.num_shards(); ++s) {
    size_t count = cache.ShardEntryCount(s);
    total += count;
    populated += count > 0 ? 1 : 0;
    max_per_shard = std::max(max_per_shard, count);
  }
  EXPECT_EQ(static_cast<size_t>(kEntries), total);
  // The hash must spread entries: every shard populated, and no shard
  // hoards more than 4x its fair share (2000/16 = 125).
  EXPECT_EQ(cache.num_shards(), populated);
  EXPECT_LE(max_per_shard, static_cast<size_t>(4 * kEntries / 16));
}

TEST(LruCacheTest, ConcurrentHitMissAccountingIsExact) {
  LruCache cache(1 << 20, 8);
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    cache.Insert("present" + std::to_string(i), Val(i), 10);
  }
  cache.ResetStats();

  constexpr int kThreads = 4;
  constexpr int kLookupsPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        if ((i + t) % 2 == 0) {
          // Guaranteed hit: present keys are never evicted (tiny charges).
          EXPECT_NE(nullptr, cache.Lookup("present" + std::to_string(i % kKeys)));
        } else {
          EXPECT_EQ(nullptr, cache.Lookup("absent" + std::to_string(i)));
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  // Per-shard counters must not lose updates under contention: totals are
  // exact, not approximate.
  CacheStats stats = cache.GetStats();
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kLookupsPerThread;
  EXPECT_EQ(kTotal, stats.hits + stats.misses);
  EXPECT_EQ(kTotal / 2, stats.hits);
  EXPECT_EQ(kTotal / 2, stats.misses);
}

/// The LRU policy the cache implements, kept as plainly as it can be
/// written: a list in recency order (front = most recently used) and an
/// ordered map from key to list position.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  void Insert(const std::string& key, int value, size_t charge) {
    Remove(key);
    lru_.push_front({key, {value, charge}});
    index_[key] = lru_.begin();
    usage_ += charge;
    ++stats_.inserts;
    while (usage_ > capacity_ && !lru_.empty()) {
      usage_ -= lru_.back().second.second;
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  /// The value, or -1 on a miss.
  int Lookup(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return -1;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second.first;
  }

  void Remove(const std::string& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      usage_ -= it->second->second.second;
      lru_.erase(it->second);
      index_.erase(it);
    }
  }

  size_t usage() const { return usage_; }
  size_t size() const { return index_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  using Node = std::pair<std::string, std::pair<int, size_t>>;
  const size_t capacity_;
  std::list<Node> lru_;
  std::map<std::string, std::list<Node>::iterator> index_;
  size_t usage_ = 0;
  CacheStats stats_;
};

// 10,000 seeded calls on a one-shard cache agree with the reference LRU
// after every call: results, counters and usage. Keys of 0 to 40 bytes
// (block-cache keys are 16) over a space small enough that entries are
// replaced, hit, erased and evicted, and enough of them live at once that
// the hash table grows.
TEST(LruCacheTest, MatchesReferenceLruOnSeededCalls) {
  constexpr size_t kCapacity = 4000;
  LruCache cache(kCapacity, 1);
  ReferenceLru reference(kCapacity);
  std::mt19937 rng(2024);
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    std::string key(static_cast<size_t>(i % 41), '\0');
    for (char& c : key) {
      c = static_cast<char>(rng());
    }
    key += std::to_string(i);  // Distinct, even where the random part is not.
    keys.push_back(key);
  }
  for (int call = 0; call < 10000; ++call) {
    const std::string& key = keys[rng() % keys.size()];
    const uint32_t op = rng() % 10;
    if (op < 4) {
      const int value = static_cast<int>(rng() % 1000);
      const size_t charge = 1 + rng() % 120;
      cache.Insert(key, Val(value), charge);
      reference.Insert(key, value, charge);
    } else if (op < 9) {
      auto hit = cache.Lookup(key);
      const int expected = reference.Lookup(key);
      ASSERT_EQ(expected, hit == nullptr ? -1 : Get(hit)) << "call " << call;
    } else {
      cache.Erase(key);
      reference.Remove(key);
    }
    const CacheStats stats = cache.GetStats();
    ASSERT_EQ(reference.stats().hits, stats.hits) << "call " << call;
    ASSERT_EQ(reference.stats().misses, stats.misses) << "call " << call;
    ASSERT_EQ(reference.stats().inserts, stats.inserts) << "call " << call;
    ASSERT_EQ(reference.stats().evictions, stats.evictions) << "call " << call;
    ASSERT_EQ(reference.usage(), cache.usage()) << "call " << call;
    ASSERT_EQ(reference.size(), cache.ShardEntryCount(0)) << "call " << call;
  }
  EXPECT_GT(reference.stats().evictions, 0u);
  EXPECT_GT(reference.stats().hits, 0u);
}

// Four threads insert, look up and erase 64 keys on a small two-shard cache
// that evicts constantly. Every value names its key, so a hit that returns
// another key's value (a torn entry or a broken chain) fails.
TEST(LruCacheTest, ConcurrentInsertLookupEraseReturnTheirOwnValues) {
  LruCache cache(400, 2);
  constexpr int kKeys = 64;
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 20000;
  std::vector<uint64_t> lookups(kThreads, 0);
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t + 1));
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int k = static_cast<int>(rng() % kKeys);
        const std::string key = "key" + std::to_string(k);
        const uint32_t op = rng() % 8;
        if (op < 3) {
          cache.Insert(key, Val(k), 1 + rng() % 30);
        } else if (op < 7) {
          ++lookups[t];
          auto hit = cache.Lookup(key);
          wrong[t] += hit != nullptr && Get(hit) != k;
        } else {
          cache.Erase(key);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  uint64_t total_lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(0, wrong[t]) << "thread " << t;
    total_lookups += lookups[t];
  }
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(total_lookups, stats.hits + stats.misses);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.usage(), 400u);
  EXPECT_LE(cache.ShardEntryCount(0) + cache.ShardEntryCount(1),
            static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace lsmlab
