// Tests of the range-sharded facade (DESIGN.md, "Sharding architecture"):
// routing, topology persistence, cross-shard batch atomicity across reopen,
// multi-shard snapshots and iterators, sharded DestroyDB, the debug summary
// at every shard count — and the headline equivalence sweep proving
// ShardedDB(N=4) and the classic single-engine layout produce identical
// results for the same randomized operation trace.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "db/filename.h"
#include "db/merge_operator.h"
#include "db/shard_directory.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

class ShardedDBTest : public ::testing::Test {
 protected:
  ShardedDBTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.max_bytes_for_level_base = 64 << 10;
    options_.target_file_size = 16 << 10;
    options_.block_size = 1024;
    options_.filter_policy = NewBloomFilterPolicy(10.0);
    options_.block_cache_capacity = 1 << 20;
  }

  Options ShardedOptions(int num_shards,
                         std::vector<std::string> splits = {}) const {
    Options o = options_;
    o.num_shards = num_shards;
    o.shard_split_keys = std::move(splits);
    return o;
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    return buf;
  }

  static std::map<std::string, std::string> Dump(DB* db,
                                                 uint64_t snapshot = 0) {
    ReadOptions ro;
    ro.snapshot_seqno = snapshot;
    std::map<std::string, std::string> result;
    auto iter = db->NewIterator(ro);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      result[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok());
    return result;
  }

  MemEnv env_;
  Options options_;
};

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, SingleShardKeepsFlatLayout) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ShardedOptions(1), "/flat", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  db.reset();
  // Classic layout: CURRENT at the root, no SHARDS, no COMMITLOG, no
  // shard subdirectories.
  EXPECT_TRUE(env_.FileExists(CurrentFileName("/flat")));
  EXPECT_FALSE(env_.FileExists(ShardsFileName("/flat")));
  EXPECT_FALSE(env_.FileExists(CommitLogFileName("/flat")));
  EXPECT_TRUE(ShardDirectory::ListShardDirs(&env_, "/flat").empty());
}

TEST_F(ShardedDBTest, ShardedLayoutCreatesTopologyAndShardDirs) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/sharded", &db).ok());
  EXPECT_EQ(4, db->num_shards());
  db.reset();
  EXPECT_TRUE(env_.FileExists(ShardsFileName("/sharded")));
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(env_.FileExists(
        CurrentFileName(ShardDirectory::ShardDirName("/sharded", k))));
  }
  EXPECT_EQ(4u, ShardDirectory::ListShardDirs(&env_, "/sharded").size());
}

TEST_F(ShardedDBTest, TopologyFileWinsOverOptionsOnReopen) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/topo", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "apple", "1").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "zebra", "2").ok());
  db.reset();

  // Reopen asking for a different topology: the SHARDS file wins.
  ASSERT_TRUE(DB::Open(ShardedOptions(2, {"m"}), "/topo", &db).ok());
  EXPECT_EQ(4, db->num_shards());
  EXPECT_EQ((std::vector<std::string>{"g", "n", "t"}),
            db->shard_split_keys());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "apple", &value).ok());
  EXPECT_EQ("1", value);
  EXPECT_TRUE(db->Get(ReadOptions(), "zebra", &value).ok());
  EXPECT_EQ("2", value);
}

TEST_F(ShardedDBTest, ExistingFlatDBStaysSingleShard) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ShardedOptions(1), "/legacy", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "1").ok());
  db.reset();
  // A pre-sharding database reopened with num_shards=4 must not be split.
  ASSERT_TRUE(DB::Open(ShardedOptions(4), "/legacy", &db).ok());
  EXPECT_EQ(1, db->num_shards());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "a", &value).ok());
  EXPECT_EQ("1", value);
}

TEST_F(ShardedDBTest, DefaultSplitsAreUniformFirstByte) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ShardedOptions(4), "/uniform", &db).ok());
  EXPECT_EQ(4, db->num_shards());
  const auto& splits = db->shard_split_keys();
  ASSERT_EQ(3u, splits.size());
  EXPECT_EQ(std::string(1, static_cast<char>(64)), splits[0]);
  EXPECT_EQ(std::string(1, static_cast<char>(128)), splits[1]);
  EXPECT_EQ(std::string(1, static_cast<char>(192)), splits[2]);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, KeysLandInTheirRangeShard) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/route", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "apple", "0").ok());   // < g: shard 0
  ASSERT_TRUE(db->Put(WriteOptions(), "grape", "1").ok());   // [g,n): shard 1
  ASSERT_TRUE(db->Put(WriteOptions(), "n", "2").ok());       // [n,t): shard 2
  ASSERT_TRUE(db->Put(WriteOptions(), "zebra", "3").ok());   // >= t: shard 3
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // Each shard directory holds exactly its own keys: one table file per
  // shard, and reopening each shard dir standalone sees only its key.
  const char* keys[4] = {"apple", "grape", "n", "zebra"};
  for (int k = 0; k < 4; ++k) {
    std::unique_ptr<DB> shard;
    Options o = options_;  // num_shards=1 opens the shard dir flat.
    ASSERT_TRUE(
        DB::Open(o, ShardDirectory::ShardDirName("/route", k), &shard).ok());
    auto contents = Dump(shard.get());
    EXPECT_EQ(1u, contents.size()) << "shard " << k;
    EXPECT_EQ(1u, contents.count(keys[k])) << "shard " << k;
  }
}

TEST_F(ShardedDBTest, ScanMergesShardsInKeyOrder) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/scan", &db).ok());
  // Insert in an order that interleaves shards.
  const std::vector<std::string> keys = {"x", "a", "p", "h", "b", "z", "m"};
  for (const auto& k : keys) {
    ASSERT_TRUE(db->Put(WriteOptions(), k, "v" + k).ok());
  }
  auto iter = db->NewIterator(ReadOptions());
  std::vector<std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen.push_back(iter->key().ToString());
  }
  EXPECT_EQ((std::vector<std::string>{"a", "b", "h", "m", "p", "x", "z"}),
            seen);
  // Seek crosses shard boundaries.
  iter->Seek("n");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("p", iter->key().ToString());
}

// ---------------------------------------------------------------------------
// Cross-shard batches
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, CrossShardBatchIsAtomicAndDurable) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/batch", &db).ok());
  WriteBatch batch;
  batch.Put("apple", "1");
  batch.Put("house", "2");
  batch.Put("queen", "3");
  batch.Put("zebra", "4");
  batch.Delete("missing");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(1u, db->statistics()->cross_shard_batches.load());
  EXPECT_EQ(4u, db->statistics()->shard_prepares.load());
  EXPECT_EQ(4u, db->statistics()->shard_commits.load());

  auto contents = Dump(db.get());
  EXPECT_EQ(4u, contents.size());
  EXPECT_EQ("1", contents["apple"]);
  EXPECT_EQ("4", contents["zebra"]);

  // Survives reopen: every shard replays its slice, whose id the commit
  // log holds.
  db.reset();
  ASSERT_TRUE(DB::Open(ShardedOptions(4), "/batch", &db).ok());
  contents = Dump(db.get());
  EXPECT_EQ(4u, contents.size());
  EXPECT_EQ("2", contents["house"]);
  EXPECT_EQ("3", contents["queen"]);
}

// Without a WAL there is nothing to make durable: a cross-shard batch logs
// no slice and writes no commit record, but still applies every slice
// through the shards' writer queues under the commit lock.
TEST_F(ShardedDBTest, CrossShardBatchWithoutAWalAppliesEverySlice) {
  Options options = ShardedOptions(4, {"g", "n", "t"});
  options.enable_wal = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/nowal", &db).ok());
  WriteBatch batch;
  batch.Put("apple", "1");
  batch.Put("house", "2");
  batch.Put("queen", "3");
  batch.Put("zebra", "4");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(4u, db->statistics()->shard_commits.load());
  EXPECT_EQ(0u, db->statistics()->wal_syncs.load());
  auto contents = Dump(db.get());
  EXPECT_EQ(4u, contents.size());
  EXPECT_EQ("3", contents["queen"]);
}

// A cross-shard commit leads every involved shard's write queue until its
// slices are applied, so a single-shard writer on one of those shards
// queues behind it. Writers on every shard run beside a cross-shard
// committer: each of them finishes, and every write reads back.
TEST_F(ShardedDBTest, SingleShardWritersBesideCrossShardCommitsAllFinish) {
  Options options = ShardedOptions(4, {"g", "n", "t"});
  options.background_threads = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/beside", &db).ok());
  constexpr int kPuts = 2000;
  constexpr int kBatches = 500;
  const std::vector<std::string> prefixes = {"a", "h", "o", "u"};  // Shards.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const std::string& prefix : prefixes) {
    threads.emplace_back([&, prefix] {
      for (int i = 0; i < kPuts; ++i) {
        if (!db->Put(WriteOptions(), prefix + Key(i), "single").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kBatches; ++i) {
      WriteBatch batch;
      for (const std::string& prefix : prefixes) {
        batch.Put(prefix + "-batch", std::to_string(i));
      }
      if (!db->Write(WriteOptions(), &batch).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(static_cast<uint64_t>(kBatches),
            db->statistics()->cross_shard_batches.load());

  auto contents = Dump(db.get());
  EXPECT_EQ(prefixes.size() * (kPuts + 1), contents.size());
  for (const std::string& prefix : prefixes) {
    EXPECT_EQ(std::to_string(kBatches - 1), contents[prefix + "-batch"]);
    EXPECT_EQ("single", contents[prefix + Key(kPuts - 1)]);
  }
}

TEST_F(ShardedDBTest, SingleShardBatchSkipsTwoPhaseCommit) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/fast", &db).ok());
  WriteBatch batch;
  batch.Put("aa", "1");
  batch.Put("ab", "2");  // Same shard.
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ(0u, db->statistics()->cross_shard_batches.load());
  EXPECT_EQ(0u, db->statistics()->shard_prepares.load());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "ab", &value).ok());
  EXPECT_EQ("2", value);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, SnapshotCutsNeverSplitACrossShardBatch) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/snap", &db).ok());
  WriteBatch before;
  before.Put("apple", "old");
  before.Put("zebra", "old");
  ASSERT_TRUE(db->Write(WriteOptions(), &before).ok());

  const SequenceNumber snap = db->GetSnapshot();

  WriteBatch after;
  after.Put("apple", "new");
  after.Put("zebra", "new");
  ASSERT_TRUE(db->Write(WriteOptions(), &after).ok());

  // At the snapshot: both old. Live: both new. Never a mix.
  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string a, z;
  ASSERT_TRUE(db->Get(at_snap, "apple", &a).ok());
  ASSERT_TRUE(db->Get(at_snap, "zebra", &z).ok());
  EXPECT_EQ("old", a);
  EXPECT_EQ("old", z);
  ASSERT_TRUE(db->Get(ReadOptions(), "apple", &a).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "zebra", &z).ok());
  EXPECT_EQ("new", a);
  EXPECT_EQ("new", z);

  // Snapshot-pinned iterator sees the old cut too.
  auto old_view = Dump(db.get(), snap);
  EXPECT_EQ("old", old_view["apple"]);
  EXPECT_EQ("old", old_view["zebra"]);
  db->ReleaseSnapshot(snap);
}

TEST_F(ShardedDBTest, SnapshotPinsSurviveFlushAndCompaction) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(2, {"m"}), "/snappin", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "v1").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "z", "v1").ok());
  const SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "v2").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "z", "v2").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactRange().ok());
  ReadOptions at_snap;
  at_snap.snapshot_seqno = snap;
  std::string value;
  ASSERT_TRUE(db->Get(at_snap, "a", &value).ok());
  EXPECT_EQ("v1", value);
  ASSERT_TRUE(db->Get(at_snap, "z", &value).ok());
  EXPECT_EQ("v1", value);
  db->ReleaseSnapshot(snap);
}

// A scan without a snapshot cuts one sequence per shard. A flush is a merge
// that drops versions below the oldest snapshot, so each shard must pin its
// part of the cut until the scan holds a read view: otherwise a flush in
// between drops the version the cut sees, and the scan reads an older one.
// The writer overwrites one key with rising counters while tiny buffers
// flush constantly; every reader's values must never go back.
TEST_F(ShardedDBTest, ScanCutIsPinnedAgainstConcurrentFlushes) {
  Options options = ShardedOptions(2, {"m"});
  options.write_buffer_size = 4 << 10;
  options.background_threads = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/scancut", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "shard zero").ok());
  std::atomic<bool> stop{false};
  std::atomic<int> went_back{0};
  std::thread writer([&] {
    const std::string pad(200, '.');
    for (int v = 1; !stop.load(); ++v) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%09d", v);
      EXPECT_TRUE(db->Put(WriteOptions(), "z", buf + pad).ok());
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string last;
      while (!stop.load()) {
        auto iter = db->NewIterator(ReadOptions());
        iter->Seek("z");
        if (iter->Valid()) {
          std::string value = iter->value().ToString().substr(0, 9);
          if (value < last) {
            went_back.fetch_add(1);
          }
          last = value;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  stop.store(true);
  writer.join();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(0, went_back.load());

  // Every pin was released: each shard's flush drops a shadowed version
  // again.
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());
  const uint64_t dropped = db->statistics()->entries_dropped_obsolete.load();
  for (const char* key : {"a", "z"}) {
    ASSERT_TRUE(db->Put(WriteOptions(), key, "older").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), key, "newer").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GE(db->statistics()->entries_dropped_obsolete.load(), dropped + 2);
}

// ---------------------------------------------------------------------------
// MultiGet
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, MultiGetFansOutAndRealignsResults) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/mget", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "apple", "1").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "house", "2").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "queen", "3").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "zebra", "4").ok());
  ASSERT_TRUE(db->Flush().ok());

  // Interleaved shard order, with misses mixed in.
  std::vector<Slice> keys = {"zebra", "apple", "nope1", "queen",
                             "house", "nope2"};
  std::vector<std::string> values;
  std::vector<Status> statuses = db->MultiGet(ReadOptions(), keys, &values);
  ASSERT_EQ(6u, statuses.size());
  EXPECT_EQ("4", values[0]);
  EXPECT_EQ("1", values[1]);
  EXPECT_TRUE(statuses[2].IsNotFound());
  EXPECT_EQ("3", values[3]);
  EXPECT_EQ("2", values[4]);
  EXPECT_TRUE(statuses[5].IsNotFound());
  EXPECT_EQ(1u, db->statistics()->multiget_batches.load());
  EXPECT_EQ(6u, db->statistics()->multiget_keys.load());
}

// ---------------------------------------------------------------------------
// Debug summary / DestroyDB
// ---------------------------------------------------------------------------

/// Occurrences of `name=` in `text` as a whole word, so "compactions=" does
/// not count inside "subcompactions=".
size_t CountAssignments(const std::string& text, const std::string& name) {
  const std::string token = name + "=";
  size_t count = 0;
  for (size_t pos = text.find(token); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    const char prev = pos == 0 ? ' ' : text[pos - 1];
    if (!std::isalnum(static_cast<unsigned char>(prev)) && prev != '_') {
      ++count;
    }
  }
  return count;
}

TEST_F(ShardedDBTest, ShardedSummaryListsEveryShardOnce) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::vector<std::string> splits =
        shards == 1 ? std::vector<std::string>{}
                    : std::vector<std::string>{"g", "n", "t"};
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(ShardedOptions(shards, splits),
                         "/summary" + std::to_string(shards), &db)
                    .ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "apple", "1").ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "zebra", "2").ok());
    ASSERT_TRUE(db->Flush().ok());
    const std::string summary = db->DebugLevelSummary();
    EXPECT_EQ(0u, summary.find("db: shards=" + std::to_string(shards) + " "))
        << summary;
    for (int k = 0; k < shards; ++k) {
      EXPECT_NE(std::string::npos,
                summary.find("shard " + std::to_string(k) + " ["))
          << summary;
    }
    // The shards share one Statistics: every ticker prints exactly once.
    Statistics::ForEachTicker(
        *db->statistics(), [&](const char* ticker, const Statistics::Ticker&) {
          EXPECT_EQ(1u, CountAssignments(summary, ticker)) << ticker;
        });
    EXPECT_NE(std::string::npos, summary.find("\nwrite_group_size: count="));
    EXPECT_NE(std::string::npos,
              summary.find("\ncompaction_duration_micros: count="));
  }
}

TEST_F(ShardedDBTest, DestroyDBRemovesShardDirectories) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(
      DB::Open(ShardedOptions(4, {"g", "n", "t"}), "/doomed", &db).ok());
  WriteBatch batch;
  batch.Put("apple", "1");
  batch.Put("zebra", "2");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  Options o = options_;
  ASSERT_TRUE(DestroyDB(o, "/doomed").ok());
  EXPECT_FALSE(env_.FileExists(ShardsFileName("/doomed")));
  EXPECT_FALSE(env_.FileExists(CommitLogFileName("/doomed")));
  for (int k = 0; k < 4; ++k) {
    EXPECT_FALSE(env_.FileExists(
        CurrentFileName(ShardDirectory::ShardDirName("/doomed", k))));
  }
  std::vector<std::string> children;
  Status s = env_.GetChildren("/doomed", &children);
  EXPECT_TRUE(s.IsNotFound() || children.empty());
}

// ---------------------------------------------------------------------------
// Equivalence sweep: ShardedDB(N=4) == single engine, same trace
// ---------------------------------------------------------------------------

TEST_F(ShardedDBTest, RandomizedTraceMatchesSingleShard) {
  Options merge_options = options_;
  merge_options.merge_operator = NewInt64AddOperator();

  std::unique_ptr<DB> flat, sharded;
  {
    Options o = merge_options;
    o.num_shards = 1;
    ASSERT_TRUE(DB::Open(o, "/equiv1", &flat).ok());
  }
  {
    Options o = merge_options;
    o.num_shards = 4;
    o.shard_split_keys = {Key(250), Key(500), Key(750)};
    ASSERT_TRUE(DB::Open(o, "/equiv4", &sharded).ok());
  }

  auto apply_both = [&](auto&& op) {
    op(flat.get());
    op(sharded.get());
  };

  Random rnd(20260809);
  std::vector<std::pair<SequenceNumber, SequenceNumber>> snapshots;
  for (int step = 0; step < 4000; ++step) {
    const int key_index = static_cast<int>(rnd.Uniform(1000));
    const std::string key = Key(key_index);
    switch (rnd.Uniform(20)) {
      case 0: {  // Cross-shard batch: same value to 3 spread-out keys.
        WriteBatch b1, b2;
        for (int j = 0; j < 3; ++j) {
          const std::string k = Key((key_index + 333 * j) % 1000);
          const std::string v = "batch" + std::to_string(step);
          b1.Put(k, v);
          b2.Put(k, v);
        }
        ASSERT_TRUE(flat->Write(WriteOptions(), &b1).ok());
        ASSERT_TRUE(sharded->Write(WriteOptions(), &b2).ok());
        break;
      }
      case 1:
        apply_both([&](DB* db) {
          ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
        });
        break;
      case 2: {
        // Int64-add merge (decimal operands) on a dedicated counter-key
        // range: merge and plain puts must not mix on one key.
        const std::string counter = "counter" + std::to_string(key_index % 7);
        const std::string operand = std::to_string(1 + key_index % 5);
        apply_both([&](DB* db) {
          ASSERT_TRUE(db->Merge(WriteOptions(), counter, operand).ok());
        });
        break;
      }
      case 3:
        if (snapshots.size() < 8) {
          snapshots.emplace_back(flat->GetSnapshot(), sharded->GetSnapshot());
        }
        break;
      case 4:
        apply_both([&](DB* db) { ASSERT_TRUE(db->Flush().ok()); });
        break;
      default:
        apply_both([&](DB* db) {
          ASSERT_TRUE(db->Put(WriteOptions(), key,
                              "v" + std::to_string(step))
                          .ok());
        });
        break;
    }
  }
  apply_both([&](DB* db) { ASSERT_TRUE(db->WaitForBackgroundWork().ok()); });

  // Full-scan equivalence, live and at every snapshot pair.
  EXPECT_EQ(Dump(flat.get()), Dump(sharded.get()));
  for (const auto& [flat_snap, sharded_snap] : snapshots) {
    EXPECT_EQ(Dump(flat.get(), flat_snap), Dump(sharded.get(), sharded_snap));
  }

  // Point-lookup and MultiGet equivalence over the whole key universe.
  std::vector<std::string> key_storage;
  key_storage.reserve(1007);
  for (int i = 0; i < 1000; ++i) {
    key_storage.push_back(Key(i));
  }
  for (int i = 0; i < 7; ++i) {
    key_storage.push_back("counter" + std::to_string(i));
  }
  std::vector<Slice> all_keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> flat_values, sharded_values;
  std::vector<Status> flat_status =
      flat->MultiGet(ReadOptions(), all_keys, &flat_values);
  std::vector<Status> sharded_status =
      sharded->MultiGet(ReadOptions(), all_keys, &sharded_values);
  for (size_t i = 0; i < all_keys.size(); ++i) {
    EXPECT_EQ(flat_status[i].ok(), sharded_status[i].ok()) << key_storage[i];
    EXPECT_EQ(flat_status[i].IsNotFound(), sharded_status[i].IsNotFound())
        << key_storage[i];
    if (flat_status[i].ok()) {
      EXPECT_EQ(flat_values[i], sharded_values[i]) << key_storage[i];
    }
    std::string fv, sv;
    Status fs = flat->Get(ReadOptions(), all_keys[i], &fv);
    Status ss = sharded->Get(ReadOptions(), all_keys[i], &sv);
    EXPECT_EQ(fs.ok(), ss.ok()) << key_storage[i];
    if (fs.ok()) {
      EXPECT_EQ(fv, sv) << key_storage[i];
    }
  }

  for (const auto& [flat_snap, sharded_snap] : snapshots) {
    flat->ReleaseSnapshot(flat_snap);
    sharded->ReleaseSnapshot(sharded_snap);
  }

  // Both survive a reopen with identical contents.
  flat.reset();
  sharded.reset();
  {
    Options o = merge_options;
    o.num_shards = 1;
    ASSERT_TRUE(DB::Open(o, "/equiv1", &flat).ok());
  }
  {
    Options o = merge_options;
    ASSERT_TRUE(DB::Open(o, "/equiv4", &sharded).ok());
    EXPECT_EQ(4, sharded->num_shards());
  }
  EXPECT_EQ(Dump(flat.get()), Dump(sharded.get()));
  EXPECT_TRUE(flat->ValidateTreeInvariants().ok());
  EXPECT_TRUE(sharded->ValidateTreeInvariants().ok());
}

}  // namespace
}  // namespace lsmlab
