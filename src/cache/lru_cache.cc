#include "cache/lru_cache.h"

#include <thread>

#include "util/hash.h"

namespace lsmlab {

namespace {
int RoundUpToPowerOfTwo(int n) {
  int p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

int LruCache::DefaultShardCount() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 4) {
    hw = 4;  // hardware_concurrency may report 0; keep some striping.
  }
  if (hw > 64) {
    hw = 64;  // Diminishing returns; bound per-shard capacity skew.
  }
  return RoundUpToPowerOfTwo(hw);
}

LruCache::LruCache(size_t capacity, int num_shards) : capacity_(capacity) {
  if (num_shards <= 0) {
    num_shards = DefaultShardCount();
  }
  num_shards = RoundUpToPowerOfTwo(num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = capacity / static_cast<size_t>(num_shards);
    shards_.push_back(std::move(shard));
  }
}

LruCache::Shard& LruCache::ShardFor(const Slice& key) {
  size_t h = HashSlice64(key, 0x85ebca6b);
  return *shards_[h & (shards_.size() - 1)];
}

void LruCache::Shard::EvictIfNeeded() {
  while (usage > capacity && !lru.empty()) {
    Entry& victim = lru.back();
    usage -= victim.charge;
    index.erase(victim.key);
    lru.pop_back();
    ++evictions;
  }
}

void LruCache::Insert(const Slice& key, std::shared_ptr<const void> value,
                      size_t charge) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  std::string key_str = key.ToString();
  auto it = shard.index.find(key_str);
  if (it != shard.index.end()) {
    shard.usage -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{std::move(key_str), std::move(value), charge});
  shard.index[shard.lru.front().key] = shard.lru.begin();
  shard.usage += charge;
  ++shard.inserts;
  shard.EvictIfNeeded();
}

std::shared_ptr<const void> LruCache::Lookup(const Slice& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key.ToStringView());
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  // Promote to MRU.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return shard.lru.front().value;
}

void LruCache::Erase(const Slice& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key.ToStringView());
  if (it != shard.index.end()) {
    shard.usage -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
}

void LruCache::Prune() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->usage = 0;
  }
}

size_t LruCache::ShardEntryCount(int index) const {
  const Shard& shard = *shards_[static_cast<size_t>(index)];
  MutexLock lock(&shard.mu);
  return shard.index.size();
}

size_t LruCache::usage() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->usage;
  }
  return total;
}

CacheStats LruCache::GetStats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserts += shard->inserts;
    stats.evictions += shard->evictions;
  }
  return stats;
}

void LruCache::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->hits = shard->misses = shard->inserts = shard->evictions = 0;
  }
}

}  // namespace lsmlab
