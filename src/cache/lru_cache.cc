#include "cache/lru_cache.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <thread>

#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lsmlab {

namespace {

int RoundUpToPowerOfTwo(int n) {
  int p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// The one hash a call computes: its low bits pick the shard, its high half
/// the bucket within the shard.
uint64_t CacheKeyHash(const Slice& key) { return HashSlice64(key, 0x85ebca6b); }
uint32_t BucketHash(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

/// One cached entry. New() allocates it together with its key bytes, which
/// sit right after the struct. It is linked into its shard's LRU list
/// (prev/next) and into one bucket chain of the shard's hash table
/// (next_hash); once dropped from both, next_hash chains it to the entries
/// its caller frees after releasing the shard lock.
struct LruCache::Entry {
  Entry* next_hash = nullptr;
  Entry* prev = nullptr;
  Entry* next = nullptr;
  std::shared_ptr<const void> value;
  size_t charge = 0;
  uint32_t hash = 0;  // BucketHash of the key.
  uint32_t key_size = 0;

  Slice key() const {
    return Slice(reinterpret_cast<const char*>(this + 1), key_size);
  }

  static Entry* New(const Slice& key, uint32_t hash,
                    std::shared_ptr<const void> value, size_t charge) {
    Entry* e = new (::operator new(sizeof(Entry) + key.size())) Entry;
    e->value = std::move(value);
    e->charge = charge;
    e->hash = hash;
    e->key_size = static_cast<uint32_t>(key.size());
    std::memcpy(reinterpret_cast<char*>(e + 1), key.data(), key.size());
    return e;
  }

  /// Frees `e` and every entry chained after it through next_hash.
  static void DeleteChain(Entry* e) {
    while (e != nullptr) {
      Entry* next = e->next_hash;
      e->~Entry();
      ::operator delete(e);
      e = next;
    }
  }
};

struct LruCache::Shard {
  Shard() { lru.next = lru.prev = &lru; }
  ~Shard() { Entry::DeleteChain(DetachAll()); }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The bucket-chain link that points at `key`'s entry, or the null link
  /// at its chain's end.
  Entry** FindSlot(const Slice& key, uint32_t hash) REQUIRES(mu) {
    Entry** slot = &buckets[hash & (num_buckets - 1)];
    while (*slot != nullptr &&
           ((*slot)->hash != hash || (*slot)->key() != key)) {
      slot = &(*slot)->next_hash;
    }
    return slot;
  }

  /// Unlinks `e` from the LRU list.
  static void Unlink(Entry* e) {
    e->next->prev = e->prev;
    e->prev->next = e->next;
  }

  /// Links `e` in as the most recently used entry.
  void Append(Entry* e) REQUIRES(mu) {
    e->next = &lru;
    e->prev = lru.prev;
    e->prev->next = e;
    e->next->prev = e;
  }

  /// Links `e` into the table at `slot` and into the list as the most
  /// recently used entry; doubles the buckets once entries outnumber them.
  void Add(Entry** slot, Entry* e) REQUIRES(mu) {
    e->next_hash = *slot;
    *slot = e;
    Append(e);
    usage += e->charge;
    if (++num_entries > num_buckets) {
      Grow();
    }
  }

  /// Unlinks the entry at `slot` from the table and the list, and chains it
  /// onto `*freed`.
  void Drop(Entry** slot, Entry** freed) REQUIRES(mu) {
    Entry* e = *slot;
    *slot = e->next_hash;
    Unlink(e);
    usage -= e->charge;
    --num_entries;
    e->next_hash = *freed;
    *freed = e;
  }

  void Grow() REQUIRES(mu) {
    const uint32_t grown = num_buckets * 2;
    auto fresh = std::make_unique<Entry*[]>(grown);
    for (uint32_t b = 0; b < num_buckets; ++b) {
      for (Entry* e = buckets[b]; e != nullptr;) {
        Entry* next = e->next_hash;
        Entry** head = &fresh[e->hash & (grown - 1)];
        e->next_hash = *head;
        *head = e;
        e = next;
      }
    }
    buckets = std::move(fresh);
    num_buckets = grown;
  }

  /// Empties the shard and returns its entries as one next_hash chain.
  Entry* DetachAll() REQUIRES(mu) {
    Entry* chain = nullptr;
    for (Entry* e = lru.next; e != &lru;) {
      Entry* next = e->next;
      e->next_hash = chain;
      chain = e;
      e = next;
    }
    lru.next = lru.prev = &lru;
    std::fill_n(buckets.get(), num_buckets, nullptr);
    num_entries = 0;
    usage = 0;
    return chain;
  }

  mutable Mutex mu{LockRank::kBlockCacheShard, "block_cache.shard.mu"};
  /// Circular list head: lru.next is the least recently used entry,
  /// lru.prev the most recently used.
  Entry lru GUARDED_BY(mu);
  uint32_t num_buckets GUARDED_BY(mu) = 16;  // A power of two.
  std::unique_ptr<Entry*[]> buckets GUARDED_BY(mu) =
      std::make_unique<Entry*[]>(num_buckets);
  uint32_t num_entries GUARDED_BY(mu) = 0;
  size_t usage GUARDED_BY(mu) = 0;
  size_t capacity = 0;  // Set once at construction; read-only afterwards.
  uint64_t hits GUARDED_BY(mu) = 0;
  uint64_t misses GUARDED_BY(mu) = 0;
  uint64_t inserts GUARDED_BY(mu) = 0;
  uint64_t evictions GUARDED_BY(mu) = 0;
};

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

LruCache::LruCache(size_t capacity, int num_shards)
    : capacity_(capacity),
      num_shards_(RoundUpToPowerOfTwo(
          num_shards <= 0 ? DefaultShardCount() : num_shards)),
      shards_(std::make_unique<Shard[]>(static_cast<size_t>(num_shards_))) {
  for (int i = 0; i < num_shards_; ++i) {
    shards_[static_cast<size_t>(i)].capacity =
        capacity / static_cast<size_t>(num_shards_);
  }
}

LruCache::~LruCache() = default;

LruCache::Shard& LruCache::ShardFor(uint64_t hash) const {
  return shards_[static_cast<size_t>(hash) &
                 static_cast<size_t>(num_shards_ - 1)];
}

void LruCache::Insert(const Slice& key, std::shared_ptr<const void> value,
                      size_t charge) {
  const uint64_t h = CacheKeyHash(key);
  Entry* fresh = Entry::New(key, BucketHash(h), std::move(value), charge);
  Entry* freed = nullptr;
  Shard& shard = ShardFor(h);
  {
    MutexLock lock(&shard.mu);
    Entry** slot = shard.FindSlot(key, fresh->hash);
    if (*slot != nullptr) {
      shard.Drop(slot, &freed);  // Replaced, not evicted.
    }
    shard.Add(slot, fresh);
    ++shard.inserts;
    // Evict from the LRU end, which may reach the entry just inserted.
    while (shard.usage > shard.capacity && shard.lru.next != &shard.lru) {
      const Entry* victim = shard.lru.next;
      shard.Drop(shard.FindSlot(victim->key(), victim->hash), &freed);
      ++shard.evictions;
    }
  }
  Entry::DeleteChain(freed);
}

std::shared_ptr<const void> LruCache::Lookup(const Slice& key) {
  const uint64_t h = CacheKeyHash(key);
  Shard& shard = ShardFor(h);
  MutexLock lock(&shard.mu);
  Entry* e = *shard.FindSlot(key, BucketHash(h));
  if (e == nullptr) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  Shard::Unlink(e);
  shard.Append(e);
  return e->value;
}

void LruCache::Erase(const Slice& key) {
  const uint64_t h = CacheKeyHash(key);
  Shard& shard = ShardFor(h);
  Entry* freed = nullptr;
  {
    MutexLock lock(&shard.mu);
    Entry** slot = shard.FindSlot(key, BucketHash(h));
    if (*slot != nullptr) {
      shard.Drop(slot, &freed);
    }
  }
  Entry::DeleteChain(freed);
}

void LruCache::Prune() {
  for (int i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[static_cast<size_t>(i)];
    Entry* freed = nullptr;
    {
      MutexLock lock(&shard.mu);
      freed = shard.DetachAll();
    }
    Entry::DeleteChain(freed);
  }
}

size_t LruCache::ShardEntryCount(int index) const {
  const Shard& shard = shards_[static_cast<size_t>(index)];
  MutexLock lock(&shard.mu);
  return shard.num_entries;
}

size_t LruCache::usage() const {
  size_t total = 0;
  for (int i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[static_cast<size_t>(i)];
    MutexLock lock(&shard.mu);
    total += shard.usage;
  }
  return total;
}

CacheStats LruCache::GetStats() const {
  CacheStats stats;
  for (int i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[static_cast<size_t>(i)];
    MutexLock lock(&shard.mu);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.evictions += shard.evictions;
  }
  return stats;
}

void LruCache::ResetStats() {
  for (int i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[static_cast<size_t>(i)];
    MutexLock lock(&shard.mu);
    shard.hits = shard.misses = shard.inserts = shard.evictions = 0;
  }
}

}  // namespace lsmlab
