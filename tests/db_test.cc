#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/db.h"
#include "db/filename.h"
#include "db/merge_operator.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

/// CI shard axis: LSMLAB_TEST_SHARDS=N re-runs the whole suite against an
/// N-shard DB (uniform first-byte splits). 0/unset is the classic
/// single-engine layout.
int TestShards() {
  const char* value = std::getenv("LSMLAB_TEST_SHARDS");
  return value != nullptr ? std::max(1, std::atoi(value)) : 1;
}

/// CI index axis: LSMLAB_TEST_INDEX=learned re-runs the whole suite with
/// per-SSTable learned (PLR) indexes instead of binary-search fences.
IndexType TestIndexType() {
  const char* value = std::getenv("LSMLAB_TEST_INDEX");
  if (value != nullptr && std::string(value) == "learned") {
    return IndexType::kLearnedPLR;
  }
  return IndexType::kBinarySearchFence;
}

/// Base fixture: small buffers so flushes and compactions happen quickly.
class DBTest : public ::testing::Test {
 protected:
  DBTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.max_bytes_for_level_base = 64 << 10;
    options_.target_file_size = 16 << 10;
    options_.block_size = 1024;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    options_.block_cache_capacity = 1 << 20;
    options_.num_shards = TestShards();
    options_.index_type = TestIndexType();
  }

  ~DBTest() override { db_.reset(); }

  void OpenDB() {
    db_.reset();
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  void Reopen() {
    db_.reset();
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  Status Put(const std::string& key, const std::string& value) {
    return db_->Put(WriteOptions(), key, value);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) {
      return "NOT_FOUND";
    }
    if (!s.ok()) {
      return "ERROR: " + s.ToString();
    }
    return value;
  }

  /// All live (key, value) pairs via a full scan.
  std::map<std::string, std::string> Dump() {
    std::map<std::string, std::string> result;
    auto iter = db_->NewIterator(ReadOptions());
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok());
    return result;
  }

  /// Paths of every table file, in the DB directory and in shard
  /// directories.
  std::set<std::string> TableFiles() { return FilesOfType(FileType::kTableFile); }

  std::set<std::string> FilesOfType(FileType want) {
    std::set<std::string> files;
    std::vector<std::string> dirs = {"/db"};
    for (int k = 0; k < options_.num_shards; ++k) {
      dirs.push_back("/db/shard-" + std::to_string(k));
    }
    for (const auto& dir : dirs) {
      std::vector<std::string> children;
      if (!env_.GetChildren(dir, &children).ok()) {
        continue;
      }
      for (const auto& child : children) {
        uint64_t number;
        FileType type;
        if (ParseFileName(child, &number, &type) && type == want) {
          files.insert(dir + "/" + child);
        }
      }
    }
    return files;
  }

  /// True when some table file holds `bytes` (tables are not compressed).
  bool SomeTableHolds(const std::string& bytes) {
    for (const std::string& path : TableFiles()) {
      std::string contents;
      EXPECT_TRUE(ReadFileToString(&env_, path, &contents).ok()) << path;
      if (contents.find(bytes) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, EmptyDB) {
  OpenDB();
  EXPECT_EQ("NOT_FOUND", Get("anything"));
  EXPECT_TRUE(Dump().empty());
}

TEST_F(DBTest, PutAndGetFromMemtable) {
  OpenDB();
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
}

TEST_F(DBTest, GetFromDiskAfterFlush) {
  OpenDB();
  ASSERT_TRUE(Put("foo", "disk-value").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ("disk-value", Get("foo"));
  EXPECT_GT(db_->TotalSstBytes(), 0u);
}

TEST_F(DBTest, DeleteHidesOlderVersions) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, WriteThenReadManyAcrossFlushes) {
  OpenDB();
  Random rnd(301);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(1000));
    std::string value = "v" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
    if (i % 500 == 499) {
      ASSERT_TRUE(db_->Flush().ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key)) << key;
  }
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, ScanIsSortedAndSuppressesTombstones) {
  OpenDB();
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(Put("d", "4").ok());

  auto dump = Dump();
  ASSERT_EQ(3u, dump.size());
  EXPECT_EQ("1", dump["a"]);
  EXPECT_EQ(0u, dump.count("b"));
  EXPECT_EQ("3", dump["c"]);
  EXPECT_EQ("4", dump["d"]);
}

TEST_F(DBTest, IteratorSeek) {
  OpenDB();
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(Put(key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto iter = db_->NewIterator(ReadOptions());
  iter->Seek("k0051");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k0052", iter->key().ToString());
}

TEST_F(DBTest, SnapshotReadsOldState) {
  OpenDB();
  // Taken before the first write, so it sees nothing.
  SequenceNumber empty = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "old").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "new").ok());
  ASSERT_TRUE(db_->Flush().ok());

  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ("old", value);
  EXPECT_EQ("new", Get("k"));
  db_->ReleaseSnapshot(snap);

  ReadOptions at_empty;
  at_empty.snapshot_seqno = empty;
  EXPECT_TRUE(db_->Get(at_empty, "k", &value).IsNotFound());
  auto iter = db_->NewIterator(at_empty);
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
  iter.reset();
  db_->ReleaseSnapshot(empty);
}

TEST_F(DBTest, SnapshotSurvivesCompaction) {
  OpenDB();
  ASSERT_TRUE(Put("k", "old").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "new").ok());
  ASSERT_TRUE(db_->CompactRange().ok());

  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "k", &value).ok());
  EXPECT_EQ("old", value);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, RecoverFromWal) {
  OpenDB();
  ASSERT_TRUE(Put("persist", "me").ok());
  ASSERT_TRUE(Put("and", "me-too").ok());
  // No flush: data is only in WAL + memtable.
  Reopen();
  EXPECT_EQ("me", Get("persist"));
  EXPECT_EQ("me-too", Get("and"));
}

TEST_F(DBTest, RecoverFromSstAndWal) {
  OpenDB();
  ASSERT_TRUE(Put("in-sst", "flushed").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Put("in-wal", "logged").ok());
  Reopen();
  EXPECT_EQ("flushed", Get("in-sst"));
  EXPECT_EQ("logged", Get("in-wal"));
}

TEST_F(DBTest, RecoverAppliesDeletes) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
  Reopen();
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, RecoverManyWrites) {
  OpenDB();
  std::map<std::string, std::string> model;
  Random rnd(11);
  for (int i = 0; i < 2000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(400));
    std::string value = "val" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  Reopen();
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, CompactRangeReducesRunsAndPreservesData) {
  OpenDB();
  std::map<std::string, std::string> model;
  Random rnd(42);
  for (int i = 0; i < 4000; ++i) {
    std::string key = "key" + std::to_string(rnd.Uniform(800));
    std::string value = std::string(32, static_cast<char>('a' + i % 26));
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  // After full compaction the tree collapses to very few runs.
  EXPECT_LE(db_->TotalSortedRuns(), 2);
  EXPECT_EQ(model, Dump());
}

TEST_F(DBTest, UpdatesReclaimSpaceViaCompaction) {
  OpenDB();
  const std::string big(512, 'x');
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(Put("key" + std::to_string(i), big).ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  uint64_t after = db_->TotalSstBytes();
  // 50 keys x ~512B = ~25KB live; compaction must have dropped the other
  // 19 rounds of shadowed versions.
  EXPECT_LT(after, 120u << 10);
  EXPECT_EQ(50u, db_->CountLiveEntries());
}

TEST_F(DBTest, TombstonesPurgedAtBottomLevel) {
  OpenDB();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(0u, db_->CountLiveEntries());
  EXPECT_GT(db_->statistics()->tombstones_dropped.load(), 0u);
  // Everything (values + tombstones) is gone: the tree is almost empty.
  EXPECT_LT(db_->TotalSstBytes(), 4u << 10);
}

TEST_F(DBTest, SingleDeleteRemovesKey) {
  OpenDB();
  ASSERT_TRUE(Put("once", "written").ok());
  ASSERT_TRUE(db_->SingleDelete(WriteOptions(), "once").ok());
  EXPECT_EQ("NOT_FOUND", Get("once"));
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ("NOT_FOUND", Get("once"));
  EXPECT_EQ(0u, db_->CountLiveEntries());
}

TEST_F(DBTest, DeleteRangeRemovesSpan) {
  OpenDB();
  for (char c = 'a'; c <= 'j'; ++c) {
    ASSERT_TRUE(Put(std::string(1, c), "v").ok());
  }
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "c", "g").ok());
  auto dump = Dump();
  EXPECT_EQ(6u, dump.size());  // a, b, g, h, i, j.
  EXPECT_EQ(1u, dump.count("a"));
  EXPECT_EQ(0u, dump.count("c"));
  EXPECT_EQ(0u, dump.count("f"));
  EXPECT_EQ(1u, dump.count("g"));
}

TEST_F(DBTest, StatisticsTrackReadsAndWrites) {
  OpenDB();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  Get("key1");
  Get("definitely-absent");
  Statistics* stats = db_->statistics();
  EXPECT_EQ(100u, stats->writes.load());
  EXPECT_EQ(2u, stats->point_lookups.load());
  EXPECT_EQ(1u, stats->point_lookup_found.load());
  EXPECT_GE(stats->flushes.load(), 1u);
}

TEST_F(DBTest, FilterSkipsRunsForAbsentKeys) {
  OpenDB();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put("present" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  db_->statistics()->Reset();
  // Absent keys *inside* the run's key range, so fence pointers cannot rule
  // them out and only the Bloom filter saves the probe.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ("NOT_FOUND", Get("present" + std::to_string(i) + "x"));
  }
  // With 10-bit Blooms, nearly all absent lookups skip every run.
  EXPECT_GT(db_->statistics()->runs_skipped_by_filter.load(), 150u);
  EXPECT_LT(db_->statistics()->runs_probed.load(), 20u);
}

TEST_F(DBTest, MemtableFilterSkipsMemtablesLackingTheKey) {
  OpenDB();
  for (int i = 0; i < 20; ++i) {  // Few enough to stay in one memtable.
    ASSERT_TRUE(Put("held" + std::to_string(i), "v").ok());
  }
  Statistics* stats = db_->statistics();
  stats->Reset();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ("v", Get("held" + std::to_string(i)));
  }
  // A held key is found in the first memtable searched: nothing skipped.
  EXPECT_EQ(0u, stats->memtables_skipped_by_filter.load());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ("NOT_FOUND", Get("absent" + std::to_string(i)));
  }
  // 20 keys set about 120 of the filter's bits, so hardly an absent key
  // gets past it.
  EXPECT_GE(stats->memtables_skipped_by_filter.load(), 95u);
  EXPECT_LE(stats->memtables_skipped_by_filter.load(), 100u);
}

TEST_F(DBTest, NoSlowdownWriteFailsInsteadOfStalling) {
  options_.max_write_buffer_number = 1;  // Any full memtable = hard stall.
  options_.write_buffer_size = 4096;
  OpenDB();
  WriteOptions no_stall;
  no_stall.no_slowdown = true;
  // Fill until the write path would stall; must see Busy, not a hang.
  bool saw_busy = false;
  for (int i = 0; i < 10000 && !saw_busy; ++i) {
    Status s = db_->Put(no_stall, "key" + std::to_string(i),
                        std::string(128, 'v'));
    if (s.IsBusy()) {
      saw_busy = true;
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  EXPECT_TRUE(saw_busy);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
}

TEST_F(DBTest, BinaryKeysAndValues) {
  OpenDB();
  std::string key("\x00\x01\x02\xff\xfe", 5);
  std::string value("\x00binary\xff", 8);
  ASSERT_TRUE(Put(key, value).ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(value, Get(key));
}

TEST_F(DBTest, LargeValues) {
  OpenDB();
  std::string big(200 << 10, 'B');  // Bigger than a memtable.
  ASSERT_TRUE(Put("big", big).ok());
  EXPECT_EQ(big, Get("big"));
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(big, Get("big"));
  Reopen();
  EXPECT_EQ(big, Get("big"));
}

TEST_F(DBTest, MissingDbFailsWithoutCreateIfMissing) {
  options_.create_if_missing = false;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "/no-such-db", &db);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(DBTest, ErrorIfExists) {
  OpenDB();
  db_.reset();
  options_.error_if_exists = true;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options_, "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(DBTest, DestroyRemovesEverything) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());
  std::vector<std::string> children;
  Status ls = env_.GetChildren("/db", &children);
  EXPECT_TRUE(ls.ok() || ls.IsNotFound()) << ls.ToString();
  EXPECT_TRUE(children.empty());
}

// A scan must not step past a block it failed to read. Here the failed
// block holds the tombstone of "m": a table iterator that moved on to its
// file's next block, or a merge that went on without the failed file,
// would serve the older, deleted "m" from the deeper run.
TEST_F(DBTest, ScanStopsAtCorruptBlockInsteadOfResurrectingDeletedKey) {
  OpenDB();
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_TRUE(Put(std::string(1, c), "old-" + std::string(1, c)).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  const std::set<std::string> deep = TableFiles();
  ASSERT_TRUE(db_->Delete(WriteOptions(), "m").ok());
  for (int i = 10; i < 40; ++i) {  // Later blocks of the same L0 file.
    ASSERT_TRUE(Put("n" + std::to_string(i), std::string(100, 'n')).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  std::vector<std::string> tombstone_file;
  for (const auto& f : TableFiles()) {
    if (deep.count(f) == 0) {
      tombstone_file.push_back(f);
    }
  }
  ASSERT_EQ(1u, tombstone_file.size());
  db_.reset();

  // Flip one byte of the L0 file's first data block (at offset 0), the one
  // holding the tombstone.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, tombstone_file[0], &contents).ok());
  contents[3] ^= 0x42;
  ASSERT_TRUE(WriteStringToFile(&env_, contents, tombstone_file[0]).ok());
  options_.verify_checksums = true;
  OpenDB();

  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "m", &value).IsCorruption());
  auto iter = db_->NewIterator(ReadOptions());
  iter->Seek("l");
  EXPECT_FALSE(iter->Valid()) << iter->key().ToString();
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid()) << iter->key().ToString();
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
}

// Nor may a scan step past a failed file of a leveled run: the keys after
// it would surface while the failed file's keys silently went missing.
TEST_F(DBTest, ScanStopsAtCorruptFileOfLeveledRun) {
  options_.target_file_size = 2 << 10;
  OpenDB();
  auto key_of = [](int i) { return "k" + std::to_string(1000 + i); };
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Put(key_of(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  // One leveled run; its files are numbered in key order.
  const std::set<std::string> tables = TableFiles();
  ASSERT_GE(tables.size(), 3u);
  db_.reset();

  const std::string second = *std::next(tables.begin());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env_, second, &contents).ok());
  contents[3] ^= 0x42;  // Its first data block.
  ASSERT_TRUE(WriteStringToFile(&env_, contents, second).ok());
  options_.verify_checksums = true;
  OpenDB();

  auto iter = db_->NewIterator(ReadOptions());
  int seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++seen) {
    ASSERT_EQ(key_of(seen), iter->key().ToString());
  }
  EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  EXPECT_GT(seen, 0);
  EXPECT_LT(seen, 200);
}

// A short scan costs one file and one block per sorted run, not one per
// file (tutorial §2.1.3): each run child opens only the file its cursor is
// in. An iterator keeps its Version's files on disk until it is gone.
TEST_F(DBTest, ShortScanOpensOneFilePerRunAndPinsItsVersion) {
  options_.target_file_size = 8 << 10;  // Many small files in one run.
  OpenDB();
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  const int kKeys = 4000;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; ++i) {
    model[key_of(i)] = std::string(100, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(Put(key_of(i), model[key_of(i)]).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());  // One leveled run...
  Random rnd(17);
  for (int l0 = 0; l0 < 2; ++l0) {  // ...and two single-block L0 runs.
    for (int k = 0; k < 3; ++k) {
      const std::string key = key_of(static_cast<int>(rnd.Uniform(kKeys)));
      model[key] = "l0-" + std::to_string(l0);
      ASSERT_TRUE(Put(key, model[key]).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  const int runs = db_->TotalSortedRuns();
  ASSERT_EQ(3, runs) << db_->LevelsDebugString();
  // A file is cut once it reaches target_file_size, so the leveled run
  // holds dozens of files.
  ASSERT_GT(db_->TotalSstBytes(), 40 * options_.target_file_size);
  ASSERT_EQ(model, Dump());  // Also warms the block cache.

  // The scan visits at most 51 entries of the leveled run. A full 1 KiB
  // block holds at least 8 of them, so past its seek block the run reads
  // at most 7 more blocks, plus one partial block where it crosses into
  // its next file. Every file holds more than 51 entries, so it crosses at
  // most once. The L0 runs fit in their seek blocks.
  const uint64_t kSpannedBlocks = 8;
  // Table-reader resolutions so far (pinned handle or cache shard).
  auto table_lookups = [&] {
    return db_->statistics()->table_cache_hits.load() +
           db_->statistics()->table_cache_misses.load();
  };
  for (int scan = 0; scan < 200; ++scan) {
    const std::string start = key_of(static_cast<int>(rnd.Uniform(kKeys - 50)));
    const CacheStats blocks_before = db_->block_cache()->GetStats();
    const uint64_t tables_before = table_lookups();
    auto iter = db_->NewIterator(ReadOptions());
    iter->Seek(start);
    auto expected = model.find(start);
    for (int k = 0; k < 50; ++k, ++expected) {
      ASSERT_TRUE(iter->Valid()) << start;
      ASSERT_EQ(expected->first, iter->key().ToString());
      ASSERT_EQ(expected->second, iter->value().ToString());
      iter->Next();
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
    const CacheStats blocks_after = db_->block_cache()->GetStats();
    ASSERT_LE(blocks_after.hits + blocks_after.misses -
                  (blocks_before.hits + blocks_before.misses),
              runs + kSpannedBlocks)
        << start;
    ASSERT_LE(table_lookups() - tables_before, static_cast<uint64_t>(runs) + 1)
        << start;
  }

  // Version pin: an iterator opened before CompactRange() rewrites every
  // file drains its whole old view; obsolete-file GC after the compaction
  // must leave the files the iterator has not opened yet.
  const std::set<std::string> old_tables = TableFiles();
  const std::map<std::string, std::string> old_model = model;
  {
    auto iter = db_->NewIterator(ReadOptions());
    // New first and last keys stretch the manual compaction over every
    // file of the leveled run.
    ASSERT_TRUE(Put(key_of(0), "new-first").ok());
    ASSERT_TRUE(Put(key_of(kKeys - 1), "new-last").ok());
    ASSERT_TRUE(db_->CompactRange().ok());
    for (const auto& f : old_tables) {
      ASSERT_TRUE(env_.FileExists(f)) << f << " deleted under an iterator";
    }
    std::map<std::string, std::string> drained;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      drained[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    EXPECT_EQ(old_model, drained);
  }
  // Released: the GC at reopen removes every old file, so the compaction
  // did rewrite all of them.
  Reopen();
  for (const auto& f : old_tables) {
    EXPECT_FALSE(env_.FileExists(f)) << f;
  }
  EXPECT_EQ("new-first", Get(key_of(0)));
}

TEST_F(DBTest, ScanHidesOlderVersionsOfTheEmptyKey) {
  OpenDB();
  // Every (key, value) a scan yields, duplicates included.
  auto scan = [&](const ReadOptions& ro) {
    std::vector<std::pair<std::string, std::string>> out;
    auto iter = db_->NewIterator(ro);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      out.emplace_back(iter->key().ToString(), iter->value().ToString());
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    return out;
  };
  using Entries = std::vector<std::pair<std::string, std::string>>;
  ASSERT_TRUE(Put("", "old").ok());
  ASSERT_TRUE(Put("", "new").ok());
  ASSERT_TRUE(Put("a", "a1").ok());
  EXPECT_EQ((Entries{{"", "new"}, {"a", "a1"}}), scan(ReadOptions()));

  const SequenceNumber snapshot = db_->GetSnapshot();
  ASSERT_TRUE(db_->Delete(WriteOptions(), "").ok());
  EXPECT_EQ("NOT_FOUND", Get(""));
  EXPECT_EQ((Entries{{"a", "a1"}}), scan(ReadOptions()));
  ReadOptions at;
  at.snapshot_seqno = snapshot;
  EXPECT_EQ((Entries{{"", "new"}, {"a", "a1"}}), scan(at));

  // The same from a flushed run.
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ((Entries{{"a", "a1"}}), scan(ReadOptions()));
  EXPECT_EQ((Entries{{"", "new"}, {"a", "a1"}}), scan(at));
  db_->ReleaseSnapshot(snapshot);
}

// A hot key's out-of-place updates pile up in the memtable and, while a
// snapshot older than them is held, in L0 files: a flush drops only the
// versions no snapshot can see. A scan steps over kMaxSequentialSkip (8) of
// a key's hidden versions, then reseeks past the rest.
TEST_F(DBTest, ScanReseeksPastHotKeyHistory) {
  options_.write_buffer_size = 1 << 20;  // The history fits one memtable.
  OpenDB();
  auto key_of = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  const int kKeys = 200;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; ++i) {
    model[key_of(i)] = "base-" + std::to_string(i);
    ASSERT_TRUE(Put(key_of(i), model[key_of(i)]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Keys first_key..last_key get `versions` more versions each.
  auto write_history = [&](int versions, int first_key, int last_key) {
    for (int v = 0; v < versions; ++v) {
      for (int k = first_key; k <= last_key; ++k) {
        model[key_of(k)] = "v" + std::to_string(v) + "-" + std::to_string(k);
        ASSERT_TRUE(Put(key_of(k), model[key_of(k)]).ok());
      }
    }
  };
  auto reseeks = [&] { return db_->statistics()->iter_reseeks.load(); };
  auto block_lookups = [&] {
    const CacheStats stats = db_->block_cache()->GetStats();
    return stats.hits + stats.misses;
  };
  // A 50-key scan from key 0 matches `expected` key for key. Key 0 is the
  // first key, and SeekToFirst (unlike a Seek, which starts at the
  // snapshot) meets its versions newer than the snapshot too.
  auto scan_from_first = [&](const ReadOptions& ro,
                             const std::map<std::string, std::string>&
                                 expected) {
    auto iter = db_->NewIterator(ro);
    iter->SeekToFirst();
    auto it = expected.begin();
    for (int k = 0; k < 50; ++k, ++it) {
      ASSERT_TRUE(iter->Valid()) << k;
      ASSERT_EQ(it->first, iter->key().ToString());
      ASSERT_EQ(it->second, iter->value().ToString());
      iter->Next();
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  };

  // In the memtable. The snapshot keeps the whole history in the flushed
  // run below.
  const SequenceNumber before_history = db_->GetSnapshot();
  write_history(1000, 0, 1);
  uint64_t before = reseeks();
  scan_from_first(ReadOptions(), model);
  EXPECT_GT(reseeks(), before);

  // In a flushed run: the scan reads the blocks its 50 keys span, plus the
  // block each reseek lands in, never the blocks of hidden versions it
  // jumps over.
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  const uint64_t runs = static_cast<uint64_t>(db_->TotalSortedRuns());
  ASSERT_EQ(2u, runs) << db_->LevelsDebugString();
  scan_from_first(ReadOptions(), model);  // Warms the block cache.
  // Past each run's seek block: the base run's 50 small entries fill less
  // than one 1 KiB block, so they cross at most one block boundary, and
  // each of the two reseeks may land in a new block of the history run.
  // Stepping through the history instead reads all of its ~35 blocks.
  const uint64_t kSpannedBlocks = 1 + 2;
  for (int scan = 0; scan < 20; ++scan) {
    before = reseeks();
    const uint64_t lookups_before = block_lookups();
    scan_from_first(ReadOptions(), model);
    EXPECT_LE(block_lookups() - lookups_before, runs + kSpannedBlocks);
    EXPECT_EQ(2u, reseeks() - before);
  }

  // Versions newer than the snapshot: the reseek lands on the key's newest
  // visible version.
  const SequenceNumber snapshot = db_->GetSnapshot();
  const std::map<std::string, std::string> at_snapshot = model;
  write_history(1000, 0, 0);
  ReadOptions at;
  at.snapshot_seqno = snapshot;
  before = reseeks();
  scan_from_first(at, at_snapshot);
  EXPECT_GT(reseeks(), before);
  scan_from_first(ReadOptions(), model);
  db_->ReleaseSnapshot(snapshot);
  db_->ReleaseSnapshot(before_history);

  // A short history is stepped through: 8 versions per key never reseek.
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());
  options_.write_buffer_size = 8 << 10;
  OpenDB();
  model.clear();
  for (int i = 0; i < kKeys; ++i) {
    model[key_of(i)] = "base-" + std::to_string(i);
    ASSERT_TRUE(Put(key_of(i), model[key_of(i)]).ok());
  }
  write_history(7, 0, 1);
  before = reseeks();
  scan_from_first(ReadOptions(), model);
  ASSERT_TRUE(db_->Flush().ok());
  scan_from_first(ReadOptions(), model);
  EXPECT_EQ(before, reseeks());
}

// A flush is the first merge (tutorial §2.1.1): versions shadowed below the
// oldest snapshot never reach L0. Each memtable holds ~170 versions of 100
// keys, so a flush that copied every version would write ~6x the live bytes.
TEST_F(DBTest, FlushDropsShadowedVersions) {
  options_.write_buffer_size = 64 << 10;
  OpenDB();
  const int kKeys = 100;
  const std::string value(100, 'v');
  char key[16];
  for (int i = 0; i < 20000; ++i) {
    std::snprintf(key, sizeof(key), "key%012d", i % kKeys);
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  const Statistics* stats = db_->statistics();
  const uint64_t flushes = stats->flushes.load();
  ASSERT_GE(flushes, 20u);
  // Each flush writes each live key once, plus the table's index, filter
  // and properties.
  const uint64_t live_bytes = kKeys * (15 + value.size());
  EXPECT_LE(stats->flush_bytes_written.load(), flushes * 2 * live_bytes);
  EXPECT_GE(stats->entries_dropped_obsolete.load(),
            20000u - flushes * kKeys);
  EXPECT_EQ(value, Get("key000000000042"));
}

// A snapshot held across a flush pins the version it sees, and only that
// one: the version below it is shadowed for every reader and goes.
TEST_F(DBTest, SnapshotHeldAcrossFlushKeepsItsVersion) {
  OpenDB();
  ASSERT_TRUE(Put("k", "first-version-shadowed").ok());
  ASSERT_TRUE(Put("k", "second-version-at-snapshot").ok());
  const SequenceNumber snapshot = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "third-version").ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_FALSE(SomeTableHolds("first-version-shadowed"));
  EXPECT_TRUE(SomeTableHolds("second-version-at-snapshot"));

  ReadOptions at;
  at.snapshot_seqno = snapshot;
  std::string value;
  ASSERT_TRUE(db_->Get(at, "k", &value).ok());
  EXPECT_EQ("second-version-at-snapshot", value);
  std::vector<std::string> values;
  std::vector<Status> statuses =
      db_->MultiGet(at, std::vector<Slice>{"k"}, &values);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ("second-version-at-snapshot", values[0]);
  auto iter = db_->NewIterator(at);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("second-version-at-snapshot", iter->value().ToString());
  iter.reset();
  EXPECT_EQ("third-version", Get("k"));

  // Released, the snapshot's version goes at the next merge that sees it.
  db_->ReleaseSnapshot(snapshot);
  ASSERT_TRUE(Put("k", "fourth-version").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_FALSE(SomeTableHolds("second-version-at-snapshot"));
  EXPECT_FALSE(SomeTableHolds("third-version"));
  EXPECT_EQ("fourth-version", Get("k"));
}

// A put and its SingleDelete in one memtable annihilate at flush: the flush
// counts, installs no table and lets its WAL go.
TEST_F(DBTest, FlushOfAnnihilatedPairInstallsNothing) {
  OpenDB();
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->SingleDelete(WriteOptions(), "k").ok());
  const Statistics* stats = db_->statistics();
  const uint64_t flushes = stats->flushes.load();
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(flushes + 1, stats->flushes.load());
  EXPECT_EQ(1u, stats->tombstones_dropped.load());
  EXPECT_EQ(0, db_->TotalSortedRuns()) << db_->LevelsDebugString();
  EXPECT_TRUE(TableFiles().empty());
  // Each engine keeps only its active WAL.
  EXPECT_EQ(static_cast<size_t>(options_.num_shards),
            FilesOfType(FileType::kLogFile).size());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  Reopen();
  EXPECT_EQ("NOT_FOUND", Get("k"));
  EXPECT_EQ(0, db_->TotalSortedRuns());
}

// A merge output whose sync fails is removed and unpinned at once, by the
// one output writer, whether a flush or a compaction wrote it.
TEST_F(DBTest, FailedCompactionOutputIsRemoved) {
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  std::unique_ptr<DB> db;  // Declared after the env it uses.
  ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  const std::set<std::string> before = TableFiles();
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpSync;
  rule.at_op_index = 0;
  rule.max_failures = 1;
  fault_env.AddRule(rule);
  EXPECT_FALSE(db->CompactRange().ok());
  EXPECT_EQ(1u, fault_env.injected_faults());
  EXPECT_EQ(before, TableFiles());
  ASSERT_TRUE(db->CompactRange().ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key7", &value).ok());
  EXPECT_EQ("value1", value);
}

// ---------------------------------------------------------------------------
// Layout matrix: the same correctness suite must hold for every disk data
// layout of tutorial §2.2.2 and every memtable rep of §2.2.1.
// ---------------------------------------------------------------------------

struct LayoutParam {
  DataLayout layout;
  MemTableRepType rep;
  CompactionGranularity granularity;
  const char* name;
};

class DBLayoutTest : public ::testing::TestWithParam<LayoutParam> {
 protected:
  DBLayoutTest() {
    options_.env = &env_;
    options_.write_buffer_size = 4 << 10;
    options_.max_bytes_for_level_base = 32 << 10;
    options_.target_file_size = 8 << 10;
    options_.block_size = 1024;
    options_.size_ratio = 3;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    options_.data_layout = GetParam().layout;
    options_.memtable_rep = GetParam().rep;
    options_.compaction_granularity = GetParam().granularity;
    if (GetParam().layout == DataLayout::kLeveling) {
      options_.level0_file_num_compaction_trigger = 1;
    }
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBLayoutTest, RandomWorkloadMatchesModel) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  Random rnd(GetParam().layout == DataLayout::kTiering ? 7 : 13);
  // One hot key takes about one write in four, so its history runs past
  // the scan's 8-step skip limit in the memtable and in flushed runs, and
  // the scans below exercise both reseek targets.
  auto pick_key = [&] {
    return rnd.OneIn(4) ? std::string("key300")
                        : "key" + std::to_string(rnd.Uniform(600));
  };
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    std::string key = pick_key();
    if (rnd.OneIn(10)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = "v" + std::to_string(i);
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Point lookups agree with the model.
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
  // Scan agrees with the model.
  std::map<std::string, std::string> dumped;
  auto iter = db_->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    dumped[iter->key().ToString()] = iter->value().ToString();
  }
  EXPECT_EQ(model, dumped);

  // Random seeks, re-seeking one iterator, land on the model's lower bound
  // and walk it in step across file boundaries; some targets lie past the
  // last key.
  for (int i = 0; i < 200; ++i) {
    const std::string target = "key" + std::to_string(rnd.Uniform(700));
    auto expected = model.lower_bound(target);
    iter->Seek(target);
    for (int k = 0; k < 20 && expected != model.end(); ++k, ++expected) {
      ASSERT_TRUE(iter->Valid()) << target;
      ASSERT_EQ(expected->first, iter->key().ToString()) << target;
      ASSERT_EQ(expected->second, iter->value().ToString()) << target;
      iter->Next();
    }
    if (expected == model.end()) {
      EXPECT_FALSE(iter->Valid()) << target;
    }
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  }

  // A scan pinned at a snapshot sees the tree as it was, while later
  // writes flush and compact underneath it.
  const SequenceNumber snapshot = db_->GetSnapshot();
  const std::map<std::string, std::string> at_snapshot = model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = pick_key();
    if (rnd.OneIn(4)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      model[key] = "w" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, model[key]).ok());
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  ReadOptions at;
  at.snapshot_seqno = snapshot;
  auto snapshot_iter = db_->NewIterator(at);
  dumped.clear();
  for (snapshot_iter->SeekToFirst(); snapshot_iter->Valid();
       snapshot_iter->Next()) {
    dumped[snapshot_iter->key().ToString()] =
        snapshot_iter->value().ToString();
  }
  EXPECT_TRUE(snapshot_iter->status().ok());
  EXPECT_EQ(at_snapshot, dumped);
  snapshot_iter.reset();
  iter.reset();
  db_->ReleaseSnapshot(snapshot);

  // Survives reopen.
  db_.reset();
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string got;
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(value, got);
  }
}

TEST_P(DBLayoutTest, TieredLevelsRespectRunBounds) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  Random rnd(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(rnd.Uniform(2000)),
                         std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  // After quiescing, no tiered level may exceed its run trigger and no
  // leveled level (except transient L0) holds overlapping files.
  // (The run-count bound is exactly the tiering invariant of §2.2.2.)
  EXPECT_GE(db_->TotalSortedRuns(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, DBLayoutTest,
    ::testing::Values(
        LayoutParam{DataLayout::kLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "Leveling"},
        LayoutParam{DataLayout::kTiering, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "Tiering"},
        LayoutParam{DataLayout::kLazyLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kWholeLevel, "LazyLeveling"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kSkipList,
                    CompactionGranularity::kPartial, "OneLevelingPartial"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kVector,
                    CompactionGranularity::kPartial, "VectorMemtable"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kHashSkipList,
                    CompactionGranularity::kPartial, "HashSkipListMemtable"},
        LayoutParam{DataLayout::kOneLeveling, MemTableRepType::kHashLinkList,
                    CompactionGranularity::kPartial, "HashLinkListMemtable"}),
    [](const ::testing::TestParamInfo<LayoutParam>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// WiscKey key-value separation
// ---------------------------------------------------------------------------

class KvSepTest : public ::testing::Test {
 protected:
  KvSepTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.kv_separation = true;
    options_.kv_separation_threshold = 100;
  }

  /// The value logs in /db, by number.
  std::vector<uint64_t> VlogFiles() {
    std::vector<std::string> children;
    EXPECT_TRUE(env_.GetChildren("/db", &children).ok());
    std::vector<uint64_t> logs;
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kVlogFile) {
        logs.push_back(number);
      }
    }
    std::sort(logs.begin(), logs.end());
    return logs;
  }

  uint64_t VlogBytes() {
    uint64_t total = 0;
    for (uint64_t number : VlogFiles()) {
      uint64_t size = 0;
      EXPECT_TRUE(env_.GetFileSize(VlogFileName("/db", number), &size).ok());
      total += size;
    }
    return total;
  }

  std::string Get(const std::string& key,
                  const ReadOptions& options = ReadOptions()) {
    std::string value;
    Status s = db_->Get(options, key, &value);
    return s.ok() ? value : s.ToString();
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvSepTest, LargeValuesRoundTripThroughVlog) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(500, 'V');
  ASSERT_TRUE(db_->Put(WriteOptions(), "big", big).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "small", "tiny").ok());
  ASSERT_TRUE(db_->Flush().ok());

  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "big", &value).ok());
  EXPECT_EQ(big, value);
  ASSERT_TRUE(db_->Get(ReadOptions(), "small", &value).ok());
  EXPECT_EQ("tiny", value);
  EXPECT_GT(VlogBytes(), 0u);
}

TEST_F(KvSepTest, ScansResolvePointers) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(300, 'x');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i), big).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  auto iter = db_->NewIterator(ReadOptions());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(big, iter->value().ToString());
    ++count;
  }
  EXPECT_EQ(50, count);
}

TEST_F(KvSepTest, VlogGcReclaimsDeadValues) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  std::string big(400, 'z');
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), big).ok());
    }
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  ASSERT_TRUE(db_->GarbageCollectVlog().ok());
  ASSERT_TRUE(db_->Flush().ok());
  // With no reader, only the log GC relocated into is left.
  EXPECT_EQ(1u, VlogFiles().size());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());

  // All 20 keys still readable after GC rewrote the logs, through Get,
  // MultiGet and an iterator alike.
  std::string value;
  std::vector<std::string> key_storage;
  for (int i = 0; i < 20; ++i) {
    key_storage.push_back("k" + std::to_string(i));
    ASSERT_TRUE(db_->Get(ReadOptions(), key_storage.back(), &value).ok())
        << i;
    EXPECT_EQ(big, value);
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
    EXPECT_EQ(big, values[i]) << key_storage[i];
  }
  auto iter = db_->NewIterator(ReadOptions());
  size_t count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(big, iter->value().ToString()) << iter->key().ToString();
    ++count;
  }
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  EXPECT_EQ(keys.size(), count);
}

// GC copies every version a snapshot sees: after an overwrite or a delete,
// a Get and a scan at a snapshot taken before it read the old value.
TEST_F(KvSepTest, GcKeepsTheValueASnapshotSees) {
  const std::string old_value(400, 'o');
  for (const bool overwrite : {true, false}) {
    SCOPED_TRACE(overwrite ? "overwrite" : "delete");
    db_.reset();
    ASSERT_TRUE(DestroyDB(options_, "/db").ok());
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    ASSERT_TRUE(db_->Put(WriteOptions(), "k", old_value).ok());
    const SequenceNumber snapshot = db_->GetSnapshot();
    if (overwrite) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(400, 'n')).ok());
    } else {
      ASSERT_TRUE(db_->Delete(WriteOptions(), "k").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->GarbageCollectVlog().ok());
    EXPECT_EQ(1u, VlogFiles().size());  // The old value was copied.
    EXPECT_TRUE(db_->ValidateTreeInvariants().ok());

    ReadOptions at_snapshot;
    at_snapshot.snapshot_seqno = snapshot;
    EXPECT_EQ(old_value, Get("k", at_snapshot));
    auto iter = db_->NewIterator(at_snapshot);
    iter->SeekToFirst();
    ASSERT_TRUE(iter->Valid()) << iter->status().ToString();
    EXPECT_EQ("k", iter->key().ToString());
    EXPECT_EQ(old_value, iter->value().ToString());
    iter.reset();
    EXPECT_EQ(overwrite ? std::string(400, 'n') : "NotFound: key deleted",
              Get("k"));
    db_->ReleaseSnapshot(snapshot);
  }
}

// An iterator keeps reading what it saw across an overwrite, a flush and a
// GC: the memtable its view holds keeps its value log. The first deletion
// pass after the iterator goes removes that log.
TEST_F(KvSepTest, GcKeepsTheLogAnOpenIteratorReads) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  const std::string old_value(400, 'o');
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", old_value).ok());
  const std::vector<uint64_t> iterator_log = VlogFiles();
  ASSERT_EQ(1u, iterator_log.size());
  auto iter = db_->NewIterator(ReadOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(400, 'n')).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->GarbageCollectVlog().ok());

  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid()) << iter->status().ToString();
  EXPECT_EQ(old_value, iter->value().ToString());
  EXPECT_EQ(iterator_log.front(), VlogFiles().front());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());

  iter.reset();
  ASSERT_TRUE(db_->GarbageCollectVlog().ok());
  const std::vector<uint64_t> left = VlogFiles();
  ASSERT_EQ(1u, left.size());
  EXPECT_GT(left.front(), iterator_log.front());
  EXPECT_EQ(std::string(400, 'n'), Get("k"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// A log nothing points into any more goes at the next deletion pass, with
// no GC: here the flush dropped the one pointer into it.
TEST_F(KvSepTest, DeadLogGoesWithoutAGc) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(400, 'o')).ok());
  const std::vector<uint64_t> dead = VlogFiles();
  ASSERT_EQ(1u, dead.size());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "inline").ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  const std::vector<uint64_t> left = VlogFiles();
  EXPECT_TRUE(std::find(left.begin(), left.end(), dead.front()) == left.end());
  EXPECT_EQ("inline", Get("k"));
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// A table names the oldest value log it points into; the tree check fails
// when that log is gone.
TEST_F(KvSepTest, InvariantsNeedTheLogsTablesPointInto) {
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(400, 'o')).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->ValidateTreeInvariants().ok());
  const std::vector<uint64_t> logs = VlogFiles();
  ASSERT_EQ(2u, logs.size());  // The flushed table's, and the active one.
  ASSERT_TRUE(env_.RemoveFile(VlogFileName("/db", logs.front())).ok());
  EXPECT_TRUE(db_->ValidateTreeInvariants().IsCorruption());
}

// A SingleDelete annihilates the put it deletes in any compaction, not only
// a bottommost one, a separated put included.
TEST_F(KvSepTest, SingleDeleteAnnihilatesSeparatedPut) {
  options_.level0_file_num_compaction_trigger = 2;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "deep", "older data").ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  ASSERT_EQ(1, db_->TotalSortedRuns());

  // Two L0 runs trigger an L0->L1 compaction over the deep run, so the
  // compaction is not bottommost.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(400, 's')).ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->SingleDelete(WriteOptions(), "k").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  EXPECT_EQ(1, db_->TotalSortedRuns()) << db_->LevelsDebugString();
  EXPECT_EQ(1u, db_->statistics()->tombstones_dropped.load());
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "k", &value).IsNotFound());
}

// A flush whose table fails once and is retried counts its drops once.
TEST_F(KvSepTest, RetriedFlushCountsGarbageOnce) {
  FaultInjectionEnv fault_env(&env_);
  options_.env = &fault_env;
  std::unique_ptr<DB> db;  // Declared after the env it uses.
  ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", std::string(400, 'a')).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", std::string(300, 'b')).ok());
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpSync;
  rule.at_op_index = 0;
  rule.max_failures = 1;
  fault_env.AddRule(rule);
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(1u, fault_env.injected_faults());
  EXPECT_EQ(1u, db->statistics()->bg_retry_success.load());
  EXPECT_EQ(1u, db->statistics()->entries_dropped_obsolete.load());
}

// GC reaches the logs an earlier open wrote: it relocates the values still
// live in them, and then they are gone.
TEST_F(KvSepTest, TotalBytesCountsLogsFromEarlierOpens) {
  auto key_of = [](int i) { return "k" + std::to_string(i); };
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_of(i), std::string(400, 'a')).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  const std::vector<uint64_t> earlier = VlogFiles();
  db_.reset();

  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_of(i), std::string(150, 'b')).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  ASSERT_TRUE(db_->GarbageCollectVlog().ok());
  for (uint64_t number : VlogFiles()) {
    EXPECT_GT(number, earlier.back());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(std::string(i < 50 ? 150 : 400, i < 50 ? 'b' : 'a'),
              Get(key_of(i)))
        << i;
  }
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// A manual compaction re-warms the block cache with its outputs, as a
// background one does: with re-warm on, reading every key after
// CompactRange() misses no block.
TEST_F(DBTest, CompactRangeRewarmsTheBlockCache) {
  auto key_of = [](int i) { return "key" + std::to_string(1000 + i); };
  auto misses_after_compaction = [&](bool rewarm, const std::string& path) {
    options_.cache_rewarm_after_compaction = rewarm;
    db_.reset();
    EXPECT_TRUE(DB::Open(options_, path, &db_).ok());
    const int kKeys = 1000;
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(Put(key_of(i), "value-" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(db_->CompactRange().ok());
    db_->block_cache()->ResetStats();
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ("value-" + std::to_string(i), Get(key_of(i)));
    }
    return db_->block_cache()->GetStats().misses;
  };
  EXPECT_EQ(0u, misses_after_compaction(true, "/rewarm"));
  EXPECT_GT(misses_after_compaction(false, "/cold"), 0u);
}

// ---------------------------------------------------------------------------
// MultiGet: the batched lookup must agree with per-key Get everywhere.
// ---------------------------------------------------------------------------

TEST_F(DBTest, MultiGetMatchesGetAcrossTree) {
  OpenDB();
  // Enough data to spread keys over memtable, L0, and deeper levels.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  for (int i = 600; i < 650; ++i) {  // Fresh keys stay in the memtable.
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }

  std::vector<std::string> key_storage;
  for (int i = 0; i < 700; i += 7) {  // Includes absent keys >= 650.
    key_storage.push_back("key" + std::to_string(i));
  }
  key_storage.push_back("never-written");
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());

  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_EQ(keys.size(), statuses.size());
  ASSERT_EQ(keys.size(), values.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string expected = Get(key_storage[i]);
    if (expected == "NOT_FOUND") {
      EXPECT_TRUE(statuses[i].IsNotFound()) << key_storage[i];
    } else {
      ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
      EXPECT_EQ(expected, values[i]) << key_storage[i];
    }
  }
}

TEST_F(DBTest, MultiGetReusesValueStringsAndEmptiesMisses) {
  OpenDB();
  ASSERT_TRUE(Put("a", "apple").ok());
  ASSERT_TRUE(Put("c", std::string(300, 'c')).ok());
  ASSERT_TRUE(Put("d", "doomed").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "d").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(Put("e", "").ok());  // In the memtable, with an empty value.
  ASSERT_TRUE(Put("f", "fig").ok());

  const std::vector<std::string> key_storage = {"a", "b", "c", "d",
                                                "e", "f", "zz"};
  const std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  const std::vector<std::string> expected = {
      "apple", "", std::string(300, 'c'), "", "", "fig", ""};
  const std::vector<bool> found = {true,  false, true, false,
                                   true,  true,  false};
  // Stale strings in every slot, longer and shorter than the answers, and
  // one slot more than the batch.
  std::vector<std::string> values = {
      std::string(1000, 'x'), "stale-b", "s", std::string(64, 'y'),
      "stale-e",              "",        "stale-zz", "extra"};
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    ASSERT_EQ(keys.size(), statuses.size());
    ASSERT_EQ(keys.size(), values.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(found[i], statuses[i].ok()) << key_storage[i];
      EXPECT_EQ(!found[i], statuses[i].IsNotFound()) << key_storage[i];
      EXPECT_EQ(expected[i], values[i]) << key_storage[i];
    }
    // The second round reads into the strings the first one left.
    values[1] = "stale-again";
  }
}

// A found value is a slice into its block, and a block read with
// fill_cache off belongs to nothing but the lookup that read it: the lookup
// must keep it alive until the value is copied out (under ASan a dangling
// slice is a use-after-free report).
TEST_F(DBTest, ValuesFromBlocksOutsideTheCacheOutliveTheLookup) {
  OpenDB();
  auto key_of = [](int i) { return "key" + std::to_string(1000 + i); };
  auto value_of = [](int i) {
    return std::string(200, static_cast<char>('a' + i % 26)) +
           std::to_string(i);
  };
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(Put(key_of(i), value_of(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  Reopen();  // An empty block cache: every block comes from the file.
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  std::string value;
  for (int i = 0; i < kKeys; ++i) {
    Status s = db_->Get(no_fill, key_of(i), &value);
    ASSERT_TRUE(s.ok()) << key_of(i) << " " << s.ToString();
    EXPECT_EQ(value_of(i), value);
  }
  std::vector<std::string> owned;
  for (int i = 0; i < kKeys; i += 19) {
    owned.push_back(key_of(i));
  }
  const std::vector<Slice> keys(owned.begin(), owned.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(no_fill, keys, &values);
  for (size_t j = 0; j < keys.size(); ++j) {
    ASSERT_TRUE(statuses[j].ok()) << owned[j];
    EXPECT_EQ(value_of(static_cast<int>(j) * 19), values[j]);
  }
}

TEST_F(DBTest, MultiGetSeesDeletionsAndOverwrites) {
  OpenDB();
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(Put("c", "3-new").ok());  // Newer version shadows the flushed one.

  std::vector<Slice> keys = {"a", "b", "c", "d"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ("1", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());  // Tombstone beats the flushed put.
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ("3-new", values[2]);
  EXPECT_TRUE(statuses[3].IsNotFound());  // Never written.
}

TEST_F(DBTest, MultiGetHonorsSnapshots) {
  OpenDB();
  ASSERT_TRUE(Put("x", "old-x").ok());
  ASSERT_TRUE(Put("y", "old-y").ok());
  SequenceNumber snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("x", "new-x").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "y").ok());
  ASSERT_TRUE(Put("z", "new-z").ok());
  ASSERT_TRUE(db_->Flush().ok());

  std::vector<Slice> keys = {"x", "y", "z"};
  std::vector<std::string> values;
  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::vector<Status> statuses = db_->MultiGet(at_snap, keys, &values);
  EXPECT_EQ("old-x", values[0]);
  EXPECT_EQ("old-y", values[1]);
  EXPECT_TRUE(statuses[2].IsNotFound());  // "z" was written after the snap.

  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_EQ("new-x", values[0]);
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_EQ("new-z", values[2]);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, MultiGetResolvesMergeChains) {
  options_.merge_operator = NewStringAppendOperator(',');
  OpenDB();
  ASSERT_TRUE(Put("m", "base").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "m", "op1").ok());
  ASSERT_TRUE(db_->Flush().ok());  // Split the chain across storage tiers.
  ASSERT_TRUE(db_->Merge(WriteOptions(), "m", "op2").ok());
  ASSERT_TRUE(db_->Merge(WriteOptions(), "pure", "solo").ok());

  std::vector<Slice> keys = {"m", "pure"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ("base,op1,op2", values[0]);
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ("solo", values[1]);
  // Batched and per-key resolution must agree.
  EXPECT_EQ(values[0], Get("m"));
  EXPECT_EQ(values[1], Get("pure"));
}

TEST_F(DBTest, MultiGetEmptyAndDuplicateKeys) {
  OpenDB();
  ASSERT_TRUE(Put("dup", "val").ok());

  std::vector<std::string> values;
  std::vector<Status> statuses =
      db_->MultiGet(ReadOptions(), {}, &values);
  EXPECT_TRUE(statuses.empty());
  EXPECT_TRUE(values.empty());

  std::vector<Slice> keys = {"dup", "dup", "dup"};
  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok());
    EXPECT_EQ("val", values[i]);
  }
  EXPECT_GE(db_->statistics()->multiget_batches.load(), 2u);
  EXPECT_GE(db_->statistics()->multiget_keys.load(), 3u);
}

// ---------------------------------------------------------------------------
// Batched I/O: batched MultiGet must agree with a per-key Get loop, and the
// batch/readahead counters must actually move.
// ---------------------------------------------------------------------------

TEST_F(DBTest, MultiGetBatchedAgreesWithSerialEverywhere) {
  options_.merge_operator = NewStringAppendOperator(',');
  // The second input separates every put value into the value log, so the
  // batched path also resolves vlog pointers, merge bases among them.
  for (bool kv_separation : {false, true}) {
    SCOPED_TRACE(kv_separation ? "kv separation" : "inline values");
    options_.kv_separation = kv_separation;
    const std::string pad(
        kv_separation ? options_.kv_separation_threshold : 0, 'p');
    db_.reset();
    ASSERT_TRUE(
        DB::Open(options_, kv_separation ? "/db-kvsep" : "/db", &db_).ok());
    // Spread data over memtable, L0, and deeper levels; mix in overwrites,
    // deletions, merge chains, and a snapshot taken mid-history.
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(
          Put("key" + std::to_string(i), "v" + std::to_string(i) + pad).ok());
    }
    ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
    SequenceNumber snap = db_->GetSnapshot();
    for (int i = 0; i < 600; i += 5) {
      ASSERT_TRUE(
          Put("key" + std::to_string(i), "over" + std::to_string(i) + pad)
              .ok());
    }
    for (int i = 2; i < 600; i += 11) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), "key" + std::to_string(i)).ok());
    }
    for (int i = 3; i < 600; i += 13) {
      ASSERT_TRUE(
          db_->Merge(WriteOptions(), "key" + std::to_string(i), "m").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());

    std::vector<std::string> key_storage;
    for (int i = 0; i < 660; i += 3) {  // Includes absent keys >= 600.
      key_storage.push_back("key" + std::to_string(i));
    }
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());

    for (bool use_snapshot : {false, true}) {
      ReadOptions ro;
      if (use_snapshot) {
        ro.snapshot_seqno = snap;
      }
      std::vector<std::string> values;
      std::vector<Status> statuses = db_->MultiGet(ro, keys, &values);
      ASSERT_EQ(keys.size(), statuses.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        std::string expected;
        Status s = db_->Get(ro, keys[i], &expected);
        EXPECT_EQ(s.ok(), statuses[i].ok())
            << key_storage[i] << " snapshot=" << use_snapshot;
        EXPECT_EQ(s.IsNotFound(), statuses[i].IsNotFound())
            << key_storage[i] << " snapshot=" << use_snapshot;
        if (s.ok()) {
          EXPECT_EQ(expected, values[i])
              << key_storage[i] << " snapshot=" << use_snapshot;
        }
      }
    }
    db_->ReleaseSnapshot(snap);
  }
}

TEST_F(DBTest, BatchedMultiGetMovesIoBatchStats) {
  OpenDB();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  db_->statistics()->Reset();

  // Cold cache: the batched path must issue at least one real MultiRead.
  std::vector<std::string> key_storage;
  for (int i = 0; i < 400; i += 25) {
    key_storage.push_back("key" + std::to_string(i));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << key_storage[i];
  }

  const Statistics* stats = db_->statistics();
  EXPECT_GE(stats->io_batches.load(), 1u);
  EXPECT_GE(stats->io_batch_reads.load(), stats->io_batches.load());
  EXPECT_GT(stats->io_batch_bytes.load(), 0u);
  // Each batched block read still lands in the block cache: a second pass
  // resolves from cache without new submissions.
  const uint64_t batches_after_cold = stats->io_batches.load();
  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  EXPECT_EQ(batches_after_cold, stats->io_batches.load());

  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos,
            summary.find("\nio_batches=" +
                         std::to_string(stats->io_batches.load()) + "\n"))
      << summary;
  EXPECT_NE(std::string::npos, summary.find("\nreadahead_hits=")) << summary;
}

// Get and MultiGet drive one point-lookup walk: over the same keys, 16-key
// MultiGets must move every per-lookup ticker by exactly what a Get loop
// moves, whether the blocks are cached or not.
TEST_F(DBTest, MultiGetDoesTheWorkOfAGetLoop) {
  options_.write_buffer_size = 256 << 10;
  options_.level0_file_num_compaction_trigger = 8;
  OpenDB();
  // Two shallow runs over one deep run; a third of the keys live only in
  // the deep run, and keys >= 600 nowhere.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "deep").ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  for (int run = 0; run < 2; ++run) {
    for (int i = run; i < 600; i += 3) {
      ASSERT_TRUE(Put("key" + std::to_string(i), "shallow").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  std::vector<std::string> key_storage;
  for (int i = 0; i < 672; ++i) {
    key_storage.push_back("key" + std::to_string(i));
  }
  auto get_loop = [&] {
    std::string value;
    for (const std::string& key : key_storage) {
      Status s = db_->Get(ReadOptions(), key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  };
  auto multigets = [&] {
    std::vector<std::string> values;
    for (size_t b = 0; b < key_storage.size(); b += 16) {
      std::vector<Slice> keys(key_storage.begin() + b,
                              key_storage.begin() + b + 16);
      for (const Status& s : db_->MultiGet(ReadOptions(), keys, &values)) {
        ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      }
    }
  };
  struct Work {
    uint64_t filter_checks, runs_skipped_by_filter, runs_probed,
        filter_false_positives, point_lookup_found, table_lookups,
        io_batches, memtables_skipped_by_filter;
  };
  auto measure = [&](const std::function<void()>& lookups, bool cold) {
    if (cold) {
      Reopen();  // Fresh block cache, table cache and reader pins.
    }
    Statistics* stats = db_->statistics();
    stats->Reset();
    lookups();
    return Work{stats->filter_checks.load(),
                stats->runs_skipped_by_filter.load(),
                stats->runs_probed.load(),
                stats->filter_false_positives.load(),
                stats->point_lookup_found.load(),
                stats->table_cache_hits.load() +
                    stats->table_cache_misses.load(),
                stats->io_batches.load(),
                stats->memtables_skipped_by_filter.load()};
  };

  get_loop();  // Warm the caches for the cached pass.
  for (bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "cold" : "cached");
    const Work loop = measure(get_loop, cold);
    const Work batched = measure(multigets, cold);
    EXPECT_GT(loop.runs_probed, 0u);
    EXPECT_GT(loop.runs_skipped_by_filter, 0u);
    EXPECT_EQ(loop.filter_checks, batched.filter_checks);
    EXPECT_EQ(loop.runs_skipped_by_filter, batched.runs_skipped_by_filter);
    EXPECT_EQ(loop.runs_probed, batched.runs_probed);
    EXPECT_EQ(loop.filter_false_positives, batched.filter_false_positives);
    EXPECT_EQ(loop.point_lookup_found, batched.point_lookup_found);
    EXPECT_EQ(loop.table_lookups, batched.table_lookups);
    EXPECT_EQ(loop.memtables_skipped_by_filter,
              batched.memtables_skipped_by_filter);
    EXPECT_EQ(0u, loop.io_batches);
    if (cold) {
      EXPECT_GT(batched.io_batches, 0u);
    } else {
      EXPECT_EQ(0u, batched.io_batches);
    }
  }
}

/// Descending byte order: a custom comparator, so the engine takes the
/// virtual user-key compare instead of the inline bytewise one.
class ReverseBytewiseComparator final : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    return b.compare(a);
  }
  const char* Name() const override { return "lsmlab.test.ReverseBytewise"; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}
};

TEST_F(DBTest, ReverseComparatorOrdersGetMultiGetAndScans) {
  static const ReverseBytewiseComparator reverse;
  options_.comparator = &reverse;
  // The default shard split keys are uniform first bytes in bytewise
  // order, which this comparator reverses.
  options_.num_shards = 1;
  OpenDB();

  std::map<std::string, std::string, std::greater<>> model;
  Random rnd(29);
  auto key_of = [](uint32_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "rk%05u", k);
    return std::string(buf);
  };
  auto churn = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::string key = key_of(rnd.Uniform(400));
      if (rnd.Uniform(5) == 0) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        model.erase(key);
      } else {
        const std::string value = "v" + std::to_string(i) + "-" + key;
        ASSERT_TRUE(Put(key, value).ok());
        model[key] = value;
      }
    }
  };
  churn(1500);
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  churn(600);  // Flushed again and again by the 8 KiB buffer...
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  churn(40);  // ...and some left in the memtable.

  std::vector<std::string> key_storage;
  for (uint32_t k = 0; k < 420; ++k) {  // Every key, present or not.
    key_storage.push_back(key_of(k));
  }
  const std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  const std::vector<Status> statuses =
      db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = model.find(key_storage[i]);
    const std::string expected = it == model.end() ? "NOT_FOUND" : it->second;
    EXPECT_EQ(expected, Get(key_storage[i]));
    EXPECT_EQ(expected,
              statuses[i].ok() ? values[i]
                               : (statuses[i].IsNotFound()
                                      ? "NOT_FOUND"
                                      : statuses[i].ToString()));
  }

  // Scans come out in descending byte order, forward from the first key
  // and from a Seek.
  std::map<std::string, std::string, std::greater<>> scanned;
  std::string last;
  auto iter = db_->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const std::string key = iter->key().ToString();
    if (!last.empty()) {
      EXPECT_GT(last, key);
    }
    last = key;
    scanned[key] = iter->value().ToString();
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(model, scanned);
  iter->Seek(key_of(200));
  auto expected_it = model.lower_bound(key_of(200));  // First key <= 200.
  ASSERT_NE(model.end(), expected_it);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(expected_it->first, iter->key().ToString());
}

// Compaction plans order user keys with the DB's comparator. Taken
// bytewise under a reversed order, the hull of several inputs shrinks to
// their intersection, the plan misses overlapping L1 files, and its output
// overlaps them.
TEST_F(DBTest, ReverseComparatorCompactionsKeepLevelsDisjoint) {
  static const ReverseBytewiseComparator reverse;
  options_.comparator = &reverse;
  options_.num_shards = 1;  // Default split keys assume bytewise order.
  OpenDB();
  constexpr uint32_t kKeys = 4000;
  auto key_of = [](uint32_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06u", k);
    return std::string(buf);
  };
  // Five ascending passes over the keys; pass p writes 100 bytes of 'a'+p.
  for (uint32_t i = 0; i < 5 * kKeys; ++i) {
    const char fill = static_cast<char>('a' + i / kKeys);
    const Status s = Put(key_of(i % kKeys), std::string(100, fill));
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s.ToString();
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  const Status s = db_->ValidateTreeInvariants();
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db_->LevelsDebugString();
  for (uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(std::string(100, 'e'), Get(key_of(k))) << k;
  }
}

TEST_F(DBTest, ScanReadaheadMovesStatsAndPreservesContents) {
  OpenDB();
  std::string value(500, 'r');
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(1000 + i);
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  db_->statistics()->Reset();

  // A scan with readahead disabled touches the buffer stats not at all.
  ReadOptions no_ra;
  no_ra.readahead_bytes = 0;
  no_ra.fill_cache = false;
  {
    std::map<std::string, std::string> seen;
    auto iter = db_->NewIterator(no_ra);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(model, seen);
  }
  EXPECT_EQ(0u, db_->statistics()->readahead_hits.load());
  EXPECT_EQ(0u, db_->statistics()->readahead_misses.load());

  // With readahead on, sequential block loads hit the prefetch buffer.
  ReadOptions with_ra;
  with_ra.readahead_bytes = 256 << 10;
  with_ra.fill_cache = false;
  {
    std::map<std::string, std::string> seen;
    auto iter = db_->NewIterator(with_ra);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      seen[iter->key().ToString()] = iter->value().ToString();
    }
    ASSERT_TRUE(iter->status().ok());
    EXPECT_EQ(model, seen);
  }
  EXPECT_GT(db_->statistics()->readahead_hits.load(), 0u);
  EXPECT_GT(db_->statistics()->readahead_misses.load(), 0u);
  // The whole point: far fewer device trips than block loads.
  EXPECT_GT(db_->statistics()->readahead_hits.load(),
            db_->statistics()->readahead_misses.load());
}

// ---------------------------------------------------------------------------
// Learned per-SSTable indexes: fence and learned tables must be
// indistinguishable to every read path, and must coexist in one tree.
// ---------------------------------------------------------------------------

TEST_F(DBTest, MixedIndexTablesCoexistAcrossReopen) {
  // Phase 1: classic fence indexes.
  options_.index_type = IndexType::kBinarySearchFence;
  OpenDB();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 300; ++i) {
    std::string key = "fence" + std::to_string(1000 + i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  // Phase 2: flip the knob and reopen. Old tables keep their fence indexes;
  // new flushes get learned ones. Both kinds serve reads from the same tree.
  options_.index_type = IndexType::kLearnedPLR;
  Reopen();
  for (int i = 0; i < 300; ++i) {
    std::string key = "learned" + std::to_string(1000 + i);
    model[key] = "w" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key)) << key;
  }
  EXPECT_EQ(model, Dump());

  const std::string summary = db_->DebugLevelSummary();
  EXPECT_NE(std::string::npos, summary.find("idx learned=")) << summary;
  EXPECT_NE(std::string::npos, summary.find("\nlearned_index_hits="))
      << summary;

  // Compaction rewrites everything with the current knob: afterwards the
  // whole dataset is still intact behind learned indexes only.
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(model, Dump());
  EXPECT_GT(db_->statistics()->learned_index_hits.load(), 0u);
}

TEST_F(DBTest, LearnedMatchesFenceRandomizedSweep) {
  // Build the identical dataset under both index types and require every
  // read path -- Get, MultiGet, forward scan, seeks -- to agree exactly.
  Random rnd(20260809);
  std::map<std::string, std::string> model;
  std::vector<std::string> dataset_keys;
  for (int i = 0; i < 2500; ++i) {
    std::string key = "k" + std::to_string(rnd.Uniform(1000000));
    model[key] = "value" + std::to_string(i);
    dataset_keys.push_back(key);
  }
  std::vector<std::string> probe_keys;
  for (int i = 0; i < 600; ++i) {
    if (rnd.OneIn(3)) {
      probe_keys.push_back("k" + std::to_string(rnd.Uniform(1000000)));
    } else {
      probe_keys.push_back(dataset_keys[rnd.Uniform(dataset_keys.size())]);
    }
  }

  struct Answers {
    std::vector<std::string> gets;
    std::vector<std::string> multigets;
    std::map<std::string, std::string> scan;
    std::vector<std::string> seeks;
  };
  auto run = [&](IndexType index_type) {
    options_.index_type = index_type;
    db_.reset();
    EXPECT_TRUE(DestroyDB(options_, "/db").ok());
    OpenDB();
    for (const auto& [key, value] : model) {
      EXPECT_TRUE(Put(key, value).ok());
    }
    EXPECT_TRUE(db_->Flush().ok());
    EXPECT_TRUE(db_->WaitForBackgroundWork().ok());

    Answers out;
    for (const std::string& key : probe_keys) {
      out.gets.push_back(Get(key));
    }
    std::vector<Slice> keys(probe_keys.begin(), probe_keys.end());
    std::vector<std::string> values;
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    for (size_t i = 0; i < keys.size(); ++i) {
      out.multigets.push_back(statuses[i].ok() ? values[i]
                              : statuses[i].IsNotFound()
                                  ? "NOT_FOUND"
                                  : "ERROR: " + statuses[i].ToString());
    }
    out.scan = Dump();
    auto iter = db_->NewIterator(ReadOptions());
    for (size_t i = 0; i < probe_keys.size(); i += 7) {
      iter->Seek(probe_keys[i]);
      out.seeks.push_back(iter->Valid() ? iter->key().ToString() + "=" +
                                              iter->value().ToString()
                                        : "END");
    }
    EXPECT_TRUE(iter->status().ok());
    return out;
  };

  Answers fence = run(IndexType::kBinarySearchFence);
  Answers learned = run(IndexType::kLearnedPLR);
  EXPECT_EQ(fence.gets, learned.gets);
  EXPECT_EQ(fence.multigets, learned.multigets);
  EXPECT_EQ(fence.scan, learned.scan);
  EXPECT_EQ(fence.seeks, learned.seeks);
  EXPECT_EQ(model, learned.scan);
  EXPECT_GT(db_->statistics()->learned_index_hits.load(), 0u);
}

TEST_F(DBTest, PerLevelIndexTypeOverride) {
  // L0 keeps cheap-to-build fences (the per-level override); every deeper
  // level falls back to the global knob and gets learned indexes.
  options_.index_type = IndexType::kLearnedPLR;
  options_.index_type_per_level = {IndexType::kBinarySearchFence};
  OpenDB();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 600; ++i) {
    std::string key = "pl" + std::to_string(100000 + i);
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(Put(key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(model, Dump());
  for (const auto& [key, value] : model) {
    ASSERT_EQ(value, Get(key)) << key;
  }
  // Compaction pushed data to level >= 1, which the override maps to
  // learned indexes.
  EXPECT_GT(db_->statistics()->learned_index_hits.load() +
                db_->statistics()->learned_index_fallbacks.load(),
            0u);
}

}  // namespace
}  // namespace lsmlab
