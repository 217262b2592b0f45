// Heap-allocation budget of the point-lookup and write paths. The global
// operator new is replaced with one that counts, per thread, the calls the
// test's own thread makes, so background flushes and compactions do not
// show up in a count.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "db/db.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"

namespace {

thread_local uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lsmlab {
namespace {

constexpr int kNumKeys = 2000;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::string Value(int i) { return std::string(100, static_cast<char>('a' + i % 26)); }

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() {
    options_.env = &env_;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  void Fill() {
    for (int i = 0; i < kNumKeys; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }

  /// Allocations made by `n` Gets of keys from `keys`, after one untimed
  /// pass over them has opened the table, filled the block cache and grown
  /// the value string. Every Get must return `expect`.
  uint64_t AllocationsPerPass(const std::vector<std::string>& keys,
                              bool expect_found) {
    std::string value;
    for (const auto& k : keys) {
      Status s = db_->Get(ReadOptions(), k, &value);
      EXPECT_EQ(expect_found, s.ok()) << k << " " << s.ToString();
    }
    std::vector<Slice> slices(keys.begin(), keys.end());
    int mismatches = 0;
    const uint64_t before = t_allocations;
    for (const Slice& k : slices) {
      Status s = db_->Get(ReadOptions(), k, &value);
      mismatches += s.ok() != expect_found;
    }
    const uint64_t made = t_allocations - before;
    EXPECT_EQ(0, mismatches);
    return made;
  }

  std::vector<std::string> PresentKeys() const {
    std::vector<std::string> keys;
    for (int i = 0; i < kNumKeys; i += 7) {
      keys.push_back(Key(i));
    }
    return keys;
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(AllocTest, GetFromActiveMemtableAllocatesNothing) {
  Open();
  Fill();
  EXPECT_EQ(0u, AllocationsPerPass(PresentKeys(), true));
}

TEST_F(AllocTest, GetFromImmutableMemtableAllocatesNothing) {
  // A flush that cannot write its table leaves the sealed memtable in the
  // read view, so the lookups below are answered by an immutable memtable.
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  options_.max_background_error_retries = 0;
  Open();
  Fill();
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpOpen;
  rule.one_in = 1;
  fault_env.AddRule(rule);
  EXPECT_FALSE(db_->Flush().ok());
  EXPECT_EQ(0, db_->TotalSortedRuns());
  EXPECT_EQ(0u, AllocationsPerPass(PresentKeys(), true));
  db_.reset();
}

TEST_F(AllocTest, GetFromCachedBlockAllocatesNothing) {
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_GT(db_->TotalSortedRuns(), 0);
  EXPECT_EQ(0u, AllocationsPerPass(PresentKeys(), true));
}

TEST_F(AllocTest, GetFromCachedBlockThroughLearnedIndexAllocatesNothing) {
  options_.index_type = IndexType::kLearnedPLR;
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_GT(db_->TotalSortedRuns(), 0);
  const uint64_t hits_before = db_->statistics()->learned_index_hits.load();
  EXPECT_EQ(0u, AllocationsPerPass(PresentKeys(), true));
  EXPECT_GT(db_->statistics()->learned_index_hits.load(), hits_before);
}

TEST_F(AllocTest, GetOfAbsentKeyAllocatesNothing) {
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  // Keys inside the table's range, so each reaches its filter and some
  // (the false positives) its block, and one past it.
  std::vector<std::string> absent;
  for (int i = 0; i < kNumKeys; i += 3) {
    absent.push_back(Key(i) + "x");
  }
  absent.push_back("zzz");
  EXPECT_EQ(0u, AllocationsPerPass(absent, false));
}

TEST_F(AllocTest, MultiGetAllocationsDoNotGrowWithTheBatch) {
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  auto allocations_for = [&](size_t batch) {
    std::vector<std::string> owned;
    for (size_t i = 0; i < batch; ++i) {
      owned.push_back(Key(static_cast<int>(i * 97 % kNumKeys)));
    }
    std::vector<Slice> keys(owned.begin(), owned.end());
    std::vector<std::string> values;
    std::vector<Status> warm = db_->MultiGet(ReadOptions(), keys, &values);
    for (const Status& s : warm) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    const uint64_t before = t_allocations;
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    const uint64_t made = t_allocations - before;
    for (const Status& s : statuses) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return made;
  };
  const uint64_t one = allocations_for(1);
  const uint64_t sixteen = allocations_for(16);
  EXPECT_EQ(one, sixteen);
  // The returned statuses and the batch's per-key walks.
  EXPECT_LE(one, 2u);
}

// With a cache too small to keep any block, every lookup reads its block:
// the read buffer, which the block adopts, the block, and its cache entry.
TEST_F(AllocTest, ColdGetAllocatesThreeTimesPerBlockRead) {
  options_.block_cache_capacity = 1;
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  const std::vector<std::string> keys = PresentKeys();
  const CacheStats before = db_->block_cache()->GetStats();
  const uint64_t made = AllocationsPerPass(keys, true);
  const CacheStats after = db_->block_cache()->GetStats();
  // Both passes (the untimed one too) missed on every key.
  EXPECT_EQ(2 * keys.size(), after.misses - before.misses);
  EXPECT_EQ(0u, after.hits - before.hits);
  EXPECT_LE(made, 3 * keys.size());
}

// A cold batch pays 3 allocations per block it reads and a constant per
// batch, whatever its size.
TEST_F(AllocTest, ColdMultiGetAllocationsBeyondBlockReadsDoNotGrow) {
  options_.block_cache_capacity = 1;
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  auto allocations_beyond_reads = [&](size_t batch) {
    std::vector<std::string> owned;
    for (size_t i = 0; i < batch; ++i) {
      owned.push_back(Key(static_cast<int>(i * 97 % kNumKeys)));
    }
    std::vector<Slice> keys(owned.begin(), owned.end());
    std::vector<std::string> values;
    std::vector<Status> warm = db_->MultiGet(ReadOptions(), keys, &values);
    for (const Status& s : warm) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    const uint64_t reads_before = db_->statistics()->io_batch_reads.load();
    const uint64_t before = t_allocations;
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    const uint64_t made = t_allocations - before;
    const uint64_t reads = db_->statistics()->io_batch_reads.load() -
                           reads_before;
    for (const Status& s : statuses) {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_GE(reads, 1u);
    EXPECT_GE(made, 3 * reads);
    return made - 3 * reads;
  };
  const uint64_t one = allocations_beyond_reads(1);
  const uint64_t sixteen = allocations_beyond_reads(16);
  EXPECT_EQ(one, sixteen);
}

// Opening a table reads its metaindex, filter, properties and index blocks
// once each, into buffers that the blocks (or their parsers) use in place.
// The first Get after a reopen opens the table; with the cache too small to
// keep a block, a second Get reads its block again, and the difference is
// what the open cost.
TEST_F(AllocTest, TableOpenReadsEachMetaBlockOnce) {
  options_.block_cache_capacity = 1;
  Open();
  Fill();
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_EQ(1, db_->TotalSortedRuns());
  db_.reset();
  Open();
  std::string value;
  uint64_t before = t_allocations;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(7), &value).ok());
  const uint64_t first = t_allocations - before;
  before = t_allocations;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(7), &value).ok());
  const uint64_t cold_read = t_allocations - before;
  EXPECT_LE(first - cold_read, 12u);
}

TEST_F(AllocTest, PutAllocatesAboutOnce) {
  Open();
  constexpr int kPuts = 1000;
  std::vector<std::string> keys;
  for (int i = 0; i < kPuts; ++i) {
    keys.push_back(Key(i));
  }
  const std::string value = Value(0);
  int failures = 0;
  const uint64_t before = t_allocations;
  for (const std::string& k : keys) {
    failures += !db_->Put(WriteOptions(), k, value).ok();
  }
  const uint64_t made = t_allocations - before;
  EXPECT_EQ(0, failures);
  EXPECT_LE(static_cast<double>(made) / kPuts, 1.1) << made;
}

}  // namespace
}  // namespace lsmlab
