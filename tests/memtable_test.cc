#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/dbformat.h"
#include "memtable/memtable.h"
#include "memtable/skiplist.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/options.h"
#include "util/random.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------------- dbformat ----

TEST(DbFormatTest, InternalKeyRoundTrip) {
  std::string encoded;
  AppendInternalKey(&encoded, ParsedInternalKey("user-key", 1234, kTypeValue));
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(encoded, &parsed));
  EXPECT_EQ("user-key", parsed.user_key.ToString());
  EXPECT_EQ(1234u, parsed.sequence);
  EXPECT_EQ(kTypeValue, parsed.type);
}

TEST(DbFormatTest, ParseRejectsShortKeys) {
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice("short"), &parsed));
}

TEST(DbFormatTest, InternalKeyOrdering) {
  InternalKeyComparator cmp(BytewiseComparator());
  auto make = [](const std::string& ukey, SequenceNumber seq, ValueType t) {
    std::string s;
    AppendInternalKey(&s, ParsedInternalKey(ukey, seq, t));
    return s;
  };
  // User key ascending dominates.
  EXPECT_LT(cmp.Compare(make("a", 1, kTypeValue), make("b", 100, kTypeValue)),
            0);
  // Same user key: higher sequence sorts first (newest first).
  EXPECT_LT(cmp.Compare(make("a", 5, kTypeValue), make("a", 4, kTypeValue)),
            0);
  // Same user key + sequence: higher type tag sorts first.
  EXPECT_LT(cmp.Compare(make("a", 5, kTypeValue),
                        make("a", 5, kTypeDeletion)),
            0);
}

TEST(DbFormatTest, LookupKeyForms) {
  LookupKey lkey("mykey", 42);
  EXPECT_EQ("mykey", lkey.user_key().ToString());
  EXPECT_EQ(lkey.user_key().size() + 8, lkey.internal_key().size());
  EXPECT_GT(lkey.memtable_key().size(), lkey.internal_key().size());
  EXPECT_EQ(42u, ExtractSequence(lkey.internal_key()));
}

TEST(DbFormatTest, LookupKeyLongKeyHeapPath) {
  std::string long_key(500, 'k');
  LookupKey lkey(long_key, 7);
  EXPECT_EQ(long_key, lkey.user_key().ToString());
}

TEST(DbFormatTest, SeekKeyFindsAllOlderEntries) {
  // A lookup key at snapshot S must sort <= any entry of the same user key
  // with sequence <= S, and > entries with sequence > S.
  InternalKeyComparator cmp(BytewiseComparator());
  LookupKey lkey("k", 10);
  auto make = [](SequenceNumber seq) {
    std::string s;
    AppendInternalKey(&s, ParsedInternalKey("k", seq, kTypeValue));
    return s;
  };
  EXPECT_LE(cmp.Compare(lkey.internal_key(), make(10)), 0);
  EXPECT_LE(cmp.Compare(lkey.internal_key(), make(3)), 0);
  EXPECT_GT(cmp.Compare(lkey.internal_key(), make(11)), 0);
}

// ------------------------------------------------------------- skiplist ----

// Entries here are 8-byte fixed64 integers; the comparator also orders an
// entry against a bare integer, the probe form Iterator::Seek takes.
struct IntEntryComparator {
  static int Order(uint64_t a, uint64_t b) {
    return (a < b) ? -1 : (a > b) ? 1 : 0;
  }
  int operator()(const char* a, const char* b) const {
    return Order(DecodeFixed64(a), DecodeFixed64(b));
  }
  int operator()(const char* entry, uint64_t probe) const {
    return Order(DecodeFixed64(entry), probe);
  }
};
using IntSkipList = SkipList<IntEntryComparator>;

void InsertInt(IntSkipList* list, uint64_t key) {
  char* entry = list->AllocateEntry(sizeof(uint64_t));
  EncodeFixed64(entry, key);
  list->Insert(entry);
}

bool ContainsInt(const IntSkipList& list, uint64_t key) {
  char probe[sizeof(uint64_t)];
  EncodeFixed64(probe, key);
  return list.Contains(probe);
}

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  IntSkipList list(IntEntryComparator(), &arena);
  Random rnd(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    uint64_t key = rnd.Uniform(10000);
    if (keys.insert(key).second) {
      InsertInt(&list, key);
    }
  }
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(keys.count(i) > 0, ContainsInt(list, i)) << i;
  }
}

TEST(SkipListTest, IterationIsSorted) {
  Arena arena;
  IntSkipList list(IntEntryComparator(), &arena);
  std::set<uint64_t> keys;
  Random rnd(99);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rnd.Uniform(100000);
    if (keys.insert(key).second) {
      InsertInt(&list, key);
    }
  }
  IntSkipList::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t expected : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(expected, DecodeFixed64(iter.key()));
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekSemantics) {
  Arena arena;
  IntSkipList list(IntEntryComparator(), &arena);
  for (uint64_t k : {10, 20, 30}) {
    InsertInt(&list, k);
  }
  IntSkipList::Iterator iter(&list);
  iter.Seek(uint64_t{15});
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(20u, DecodeFixed64(iter.key()));
  iter.Seek(uint64_t{20});
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(20u, DecodeFixed64(iter.key()));
  iter.Prev();
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(10u, DecodeFixed64(iter.key()));
  iter.Seek(uint64_t{31});
  EXPECT_FALSE(iter.Valid());
  iter.SeekToLast();
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(30u, DecodeFixed64(iter.key()));
}

// Entries of every size, each written into the bytes AllocateEntry handed
// out, read back intact: no node's links overlap a neighbour's entry.
TEST(SkipListTest, EntriesLiveInsideTheirNodes) {
  Arena arena;
  IntSkipList list(IntEntryComparator(), &arena);
  Random rnd(17);
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 0; k < 3000; ++k) {
    const uint64_t key = (k * 7919) % 3000;
    std::string tail(rnd.Uniform(300), static_cast<char>('a' + key % 26));
    char* entry = list.AllocateEntry(sizeof(uint64_t) + tail.size());
    EncodeFixed64(entry, key);
    std::memcpy(entry + sizeof(uint64_t), tail.data(), tail.size());
    list.Insert(entry);
    model[key] = tail;
  }
  IntSkipList::Iterator iter(&list);
  iter.SeekToFirst();
  for (const auto& [key, tail] : model) {
    ASSERT_TRUE(iter.Valid());
    ASSERT_EQ(key, DecodeFixed64(iter.key()));
    ASSERT_EQ(tail, std::string(iter.key() + sizeof(uint64_t), tail.size()));
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

// ------------------------------------------------------------- memtable ----

class MemTableTest : public ::testing::TestWithParam<MemTableRepType> {
 protected:
  MemTableTest() : internal_cmp_(BytewiseComparator()) {}

  std::unique_ptr<MemTable> NewTable() {
    return std::make_unique<MemTable>(&internal_cmp_, GetParam(), 64,
                                      Options().write_buffer_size);
  }

  // Point-get helper at the given snapshot.
  bool Get(MemTable* table, const std::string& key, SequenceNumber snapshot,
           std::string* value, ValueType* type) {
    LookupKey lkey(key, snapshot);
    Slice found;
    if (!table->Get(lkey, &found, type)) {
      return false;
    }
    value->assign(found.data(), found.size());
    return true;
  }

  InternalKeyComparator internal_cmp_;
};

TEST_P(MemTableTest, AddAndGet) {
  auto table = NewTable();
  table->Add(1, kTypeValue, "apple", "red");
  table->Add(2, kTypeValue, "banana", "yellow");

  std::string value;
  ValueType type;
  ASSERT_TRUE(Get(table.get(), "apple", 100, &value, &type));
  EXPECT_EQ(kTypeValue, type);
  EXPECT_EQ("red", value);
  ASSERT_TRUE(Get(table.get(), "banana", 100, &value, &type));
  EXPECT_EQ("yellow", value);
  EXPECT_FALSE(Get(table.get(), "cherry", 100, &value, &type));
}

TEST_P(MemTableTest, NewerVersionShadowsOlder) {
  auto table = NewTable();
  table->Add(1, kTypeValue, "k", "v1");
  table->Add(2, kTypeValue, "k", "v2");
  table->Add(3, kTypeValue, "k", "v3");

  std::string value;
  ValueType type;
  ASSERT_TRUE(Get(table.get(), "k", 100, &value, &type));
  EXPECT_EQ("v3", value);
}

TEST_P(MemTableTest, SnapshotReadsSeeOldVersions) {
  auto table = NewTable();
  table->Add(1, kTypeValue, "k", "v1");
  table->Add(5, kTypeValue, "k", "v5");

  std::string value;
  ValueType type;
  // Snapshot at 3 sees only the seq<=3 version.
  ASSERT_TRUE(Get(table.get(), "k", 3, &value, &type));
  EXPECT_EQ("v1", value);
  ASSERT_TRUE(Get(table.get(), "k", 5, &value, &type));
  EXPECT_EQ("v5", value);
}

TEST_P(MemTableTest, TombstoneResolvesAsDeletion) {
  auto table = NewTable();
  table->Add(1, kTypeValue, "k", "v1");
  table->Add(2, kTypeDeletion, "k", "");

  std::string value;
  ValueType type;
  ASSERT_TRUE(Get(table.get(), "k", 100, &value, &type));
  EXPECT_EQ(kTypeDeletion, type);
  // The old version is still visible below the tombstone's snapshot.
  ASSERT_TRUE(Get(table.get(), "k", 1, &value, &type));
  EXPECT_EQ(kTypeValue, type);
  EXPECT_EQ("v1", value);
}

TEST_P(MemTableTest, IterationSortedAndComplete) {
  auto table = NewTable();
  Random rnd(17);
  std::map<std::string, std::string> model;
  SequenceNumber seq = 1;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(500));
    std::string value = "val" + std::to_string(i);
    model[key] = value;
    table->Add(seq++, kTypeValue, key, value);
  }

  auto iter = table->NewIterator();
  iter->SeekToFirst();
  std::string last_user_key;
  std::map<std::string, std::string> seen;
  std::string prev_internal;
  while (iter->Valid()) {
    Slice ikey = iter->key();
    if (!prev_internal.empty()) {
      EXPECT_LT(internal_cmp_.Compare(prev_internal, ikey), 0)
          << "iteration must be strictly sorted";
    }
    prev_internal.assign(ikey.data(), ikey.size());
    std::string user_key = ExtractUserKey(ikey).ToString();
    // Newest version of each user key comes first.
    if (seen.find(user_key) == seen.end()) {
      seen[user_key] = iter->value().ToString();
    }
    iter->Next();
  }
  EXPECT_EQ(model, seen);
}

TEST_P(MemTableTest, SeekPositionsAtLowerBound) {
  auto table = NewTable();
  table->Add(1, kTypeValue, "b", "vb");
  table->Add(2, kTypeValue, "d", "vd");

  auto iter = table->NewIterator();
  std::string target;
  AppendInternalKey(&target,
                    ParsedInternalKey("c", kMaxSequenceNumber,
                                      kValueTypeForSeek));
  iter->Seek(target);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("d", ExtractUserKey(iter->key()).ToString());
}

TEST_P(MemTableTest, CountAndMemoryGrow) {
  auto table = NewTable();
  EXPECT_TRUE(table->Empty());
  size_t base_usage = table->ApproximateMemoryUsage();
  for (int i = 0; i < 100; ++i) {
    table->Add(static_cast<SequenceNumber>(i + 1), kTypeValue,
               "key" + std::to_string(i), std::string(100, 'v'));
  }
  EXPECT_EQ(100u, table->Count());
  EXPECT_FALSE(table->Empty());
  EXPECT_GT(table->ApproximateMemoryUsage(), base_usage);
  EXPECT_GT(table->DataSize(), 100u * 100u);
}

TEST_P(MemTableTest, EmptyValueAndBinaryKeys) {
  auto table = NewTable();
  std::string binary_key("\x00\x01\xff\x7f", 4);
  table->Add(1, kTypeValue, binary_key, "");
  std::string value = "sentinel";
  ValueType type;
  ASSERT_TRUE(Get(table.get(), binary_key, 10, &value, &type));
  EXPECT_EQ(kTypeValue, type);
  EXPECT_EQ("", value);
}

std::string FilterKey(int i) { return "filter-key-" + std::to_string(i); }

// The memtable filter may not drop a key: Get consults it before the rep,
// so a false negative would hide a present key.
TEST_P(MemTableTest, FilterReportsEveryAddedKey) {
  auto table = NewTable();
  for (int i = 0; i < 20000; ++i) {
    table->Add(static_cast<SequenceNumber>(i + 1), kTypeValue, FilterKey(i),
               "v" + std::to_string(i));
  }
  std::string value;
  ValueType type;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(table->KeyMayMatch(FilterKey(i))) << i;
    ASSERT_TRUE(Get(table.get(), FilterKey(i), kMaxSequenceNumber, &value,
                    &type))
        << i;
    EXPECT_EQ("v" + std::to_string(i), value);
  }
}

TEST_P(MemTableTest, FilterRulesOutKeysNeverWritten) {
  auto table = NewTable();
  for (int i = 0; i < 20000; i += 2) {
    table->Add(static_cast<SequenceNumber>(i + 1), kTypeValue, FilterKey(i),
               "v");
  }
  Slice value;
  ValueType type;
  int passed = 0;
  for (int i = 1; i < 20000; i += 2) {
    bool skipped = false;
    LookupKey lkey(FilterKey(i), kMaxSequenceNumber);
    EXPECT_FALSE(table->Get(lkey, &value, &type, &skipped)) << i;
    EXPECT_EQ(skipped, !table->KeyMayMatch(FilterKey(i))) << i;
    passed += skipped ? 0 : 1;
  }
  // 10k keys in the default 64 KiB filter: about 52 bits per key, so
  // hardly any absent key gets past it.
  EXPECT_LT(passed, 10);
}

// A 1 KiB write buffer sizes the filter at its floor, one 64-byte line;
// 2,000 keys saturate it, so nearly every probe passes, and the rep still
// answers exactly.
TEST_P(MemTableTest, SaturatedOneLineFilterStillAnswersCorrectly) {
  MemTable table(&internal_cmp_, GetParam(), 64, 1 << 10);
  for (int i = 0; i < 4000; i += 2) {
    table.Add(static_cast<SequenceNumber>(i + 1), kTypeValue, FilterKey(i),
              "v" + std::to_string(i));
  }
  std::string value;
  ValueType type;
  int passed = 0;
  for (int i = 0; i < 4000; ++i) {
    passed += (i % 2 == 1 && table.KeyMayMatch(FilterKey(i))) ? 1 : 0;
    const bool found =
        Get(&table, FilterKey(i), kMaxSequenceNumber, &value, &type);
    ASSERT_EQ(i % 2 == 0, found) << i;
    if (found) {
      EXPECT_EQ("v" + std::to_string(i), value);
    }
  }
  EXPECT_EQ(2000, passed);  // Every bit of the line is set.
}

INSTANTIATE_TEST_SUITE_P(
    AllReps, MemTableTest,
    ::testing::Values(MemTableRepType::kSkipList, MemTableRepType::kVector,
                      MemTableRepType::kHashSkipList,
                      MemTableRepType::kHashLinkList),
    [](const ::testing::TestParamInfo<MemTableRepType>& info) {
      switch (info.param) {
        case MemTableRepType::kSkipList:
          return "SkipList";
        case MemTableRepType::kVector:
          return "Vector";
        case MemTableRepType::kHashSkipList:
          return "HashSkipList";
        case MemTableRepType::kHashLinkList:
          return "HashLinkList";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace lsmlab
