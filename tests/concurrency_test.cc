// Concurrency stress: readers, scanners, and snapshot holders running
// against a writer while flushes and compactions churn in the background.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "io/fault_injection_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "kvsep/vlog.h"
#include "util/random.h"

namespace lsmlab {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() {
    options_.env = &env_;
    options_.write_buffer_size = 8 << 10;
    options_.max_bytes_for_level_base = 64 << 10;
    options_.background_threads = 2;
    options_.filter_policy = NewBloomFilterPolicy(10);
  }

  MemEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

/// Closes a fixture's DB when a test body ends. A test that opens db_ on an
/// env declared in its own body declares one of these right after the env:
/// otherwise db_, a fixture member, outlives that env, and background work
/// still running at the end of the test touches a destroyed env.
struct CloseDbFirst {
  std::unique_ptr<DB>* db;
  ~CloseDbFirst() { db->reset(); }
};

TEST_F(ConcurrencyTest, ReadersDuringWrites) {
  ASSERT_TRUE(DB::Open(options_, "/conc", &db_).ok());

  constexpr int kKeySpace = 500;
  constexpr int kWrites = 20000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> reads_done{0};

  // Writer: monotone values per key so readers can check freshness order.
  std::thread writer([&] {
    Random rnd(1);
    for (int i = 0; i < kWrites; ++i) {
      std::string key = "key" + std::to_string(rnd.Uniform(kKeySpace));
      // Value encodes the write index, zero-padded so bytewise order works.
      char value[16];
      snprintf(value, sizeof(value), "%010d", i);
      Status s = db_->Put(WriteOptions(), key, value);
      if (!s.ok()) {
        ++read_errors;
        break;
      }
    }
    done.store(true);
  });

  // Readers: every Get must return OK or NotFound — never corruption.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rnd(static_cast<uint64_t>(r) + 100);
      std::string value;
      while (!done.load()) {
        std::string key = "key" + std::to_string(rnd.Uniform(kKeySpace));
        Status s = db_->Get(ReadOptions(), key, &value);
        if (!s.ok() && !s.IsNotFound()) {
          ++read_errors;
        }
        ++reads_done;
      }
    });
  }

  // Scanner: iterators must always see a sorted, consistent view.
  std::thread scanner([&] {
    while (!done.load()) {
      auto iter = db_->NewIterator(ReadOptions());
      std::string prev;
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        std::string key = iter->key().ToString();
        if (!prev.empty() && !(prev < key)) {
          ++read_errors;
          break;
        }
        prev = key;
      }
      if (!iter->status().ok()) {
        ++read_errors;
      }
    }
  });

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  scanner.join();

  EXPECT_EQ(0u, read_errors.load());
  EXPECT_GT(reads_done.load(), 0u);
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
  EXPECT_EQ(static_cast<uint64_t>(kKeySpace), db_->CountLiveEntries());
}

TEST_F(ConcurrencyTest, SnapshotIsolationUnderChurn) {
  ASSERT_TRUE(DB::Open(options_, "/conc2", &db_).ok());

  // Freeze a snapshot, then overwrite everything repeatedly; the snapshot
  // view must stay bit-identical even across flush/compaction churn.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                         "generation-0")
                    .ok());
  }
  SequenceNumber snap = db_->GetSnapshot();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::thread checker([&] {
    ReadOptions at_snap;
    at_snap.snapshot_seqno = snap;
    Random rnd(7);
    std::string value;
    while (!done.load()) {
      std::string key = "key" + std::to_string(rnd.Uniform(200));
      Status s = db_->Get(at_snap, key, &value);
      if (!s.ok() || value != "generation-0") {
        ++violations;
      }
    }
  });

  for (int gen = 1; gen <= 10; ++gen) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "key" + std::to_string(i),
                           "generation-" + std::to_string(gen))
                      .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  done.store(true);
  checker.join();

  EXPECT_EQ(0u, violations.load());
  db_->ReleaseSnapshot(snap);

  // After release, a full compaction may reclaim the old generations.
  ASSERT_TRUE(db_->CompactRange().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "key0", &value).ok());
  EXPECT_EQ("generation-10", value);
}

// The ReadView swap (memtable seal + flush install) must never be visible
// to a racing Get as a torn state: a key that was durably written stays
// readable through every view republication.
TEST_F(ConcurrencyTest, GetNeverMissesCommittedKeysDuringFlushChurn) {
  ASSERT_TRUE(DB::Open(options_, "/conc-view1", &db_).ok());

  constexpr int kKeys = 400;
  std::atomic<int> committed{-1};  // Highest key index durably written.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> errors{0};

  // Readers hammer the committed prefix: every key <= committed must be
  // found, whether it currently lives in the active memtable, a sealed
  // immutable, or a freshly installed L0/Ln file.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rnd(static_cast<uint64_t>(r) + 77);
      std::string value;
      while (!done.load()) {
        int limit = committed.load(std::memory_order_acquire);
        if (limit < 0) {
          continue;
        }
        int i = static_cast<int>(rnd.Uniform(static_cast<uint32_t>(limit + 1)));
        Status s = db_->Get(ReadOptions(), "vk" + std::to_string(i), &value);
        if (s.IsNotFound()) {
          ++misses;
        } else if (!s.ok()) {
          ++errors;
        }
      }
    });
  }

  // Writer forces a view republication (memtable seal + flush install) on
  // every batch via explicit Flush.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "vk" + std::to_string(i),
                         "payload-" + std::to_string(i))
                    .ok());
    committed.store(i, std::memory_order_release);
    if (i % 40 == 39) {
      ASSERT_TRUE(db_->Flush().ok());
    }
  }
  done.store(true);
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_EQ(0u, misses.load());
  EXPECT_EQ(0u, errors.load());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_EQ(static_cast<uint64_t>(kKeys), db_->CountLiveEntries());
}

// Read-your-write through the memtable filter: one writer adds new keys
// while readers Get each key as soon as its Put has returned, newest first.
// The writer sets filter bits with relaxed stores and readers load them
// relaxed; the last_sequence release/acquire pair is what makes a returned
// Put's bits visible, so a miss here is a filter false negative. The 8 KiB
// buffer seals a memtable every few hundred keys, so lookups also cross
// immutable memtables and fresh tables.
TEST_F(ConcurrencyTest, ReadersSeeEachKeyAsSoonAsItsPutReturns) {
  ASSERT_TRUE(DB::Open(options_, "/conc-filter", &db_).ok());

  constexpr int kKeys = 3000;
  auto key_of = [](int i) { return "fk" + std::to_string(i); };
  auto value_of = [](int i) { return "value-" + std::to_string(i); };
  std::atomic<int> returned{0};  // Puts of keys [0, returned) have returned.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> checked{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::string value;
      int next = 0;  // Keys below this one were checked.
      while (next < kKeys) {
        const bool writer_done = done.load();
        const int limit = returned.load(std::memory_order_acquire);
        if (limit == next && writer_done) {
          break;  // The writer stopped early.
        }
        for (int i = limit - 1; i >= next; --i) {
          Status s = db_->Get(ReadOptions(), key_of(i), &value);
          if (s.IsNotFound()) {
            ++misses;
          } else if (!s.ok() || value != value_of(i)) {
            ++wrong;
          }
          ++checked;
        }
        next = std::max(next, limit);
      }
    });
  }
  for (int i = 0; i < kKeys; ++i) {
    if (!db_->Put(WriteOptions(), key_of(i), value_of(i)).ok()) {
      ADD_FAILURE() << "Put " << i;
      break;
    }
    returned.store(i + 1, std::memory_order_release);
  }
  done.store(true);
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_EQ(0u, misses.load());
  EXPECT_EQ(0u, wrong.load());
  EXPECT_EQ(2u * kKeys, checked.load());
}

// MultiGet acquires one view per batch; compactions republishing the view
// mid-stream must never tear a batch (every key resolves against one
// consistent state) or break per-key agreement with Get.
TEST_F(ConcurrencyTest, MultiGetConsistentUnderCompactionChurn) {
  ASSERT_TRUE(DB::Open(options_, "/conc-view2", &db_).ok());

  constexpr int kKeys = 300;
  // Seed every key with generation 0 so no batch ever sees NotFound.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "mk" + std::to_string(i), "gen-0000").ok());
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> batchers;
  for (int r = 0; r < 2; ++r) {
    batchers.emplace_back([&, r] {
      Random rnd(static_cast<uint64_t>(r) + 31);
      while (!done.load()) {
        std::vector<std::string> key_storage;
        std::vector<Slice> keys;
        for (int k = 0; k < 16; ++k) {
          key_storage.push_back(
              "mk" + std::to_string(rnd.Uniform(kKeys)));
        }
        for (const auto& ks : key_storage) {
          keys.emplace_back(ks);
        }
        std::vector<std::string> values;
        std::vector<Status> statuses =
            db_->MultiGet(ReadOptions(), keys, &values);
        for (size_t i = 0; i < keys.size(); ++i) {
          // Keys are never deleted, so every status must be OK and every
          // value a well-formed generation stamp.
          if (!statuses[i].ok() || values[i].rfind("gen-", 0) != 0) {
            ++violations;
          }
        }
      }
    });
  }

  // Overwrite generations while flushes and compactions replace the view's
  // version underneath the batchers.
  for (int gen = 1; gen <= 12; ++gen) {
    char stamp[16];
    snprintf(stamp, sizeof(stamp), "gen-%04d", gen);
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), "mk" + std::to_string(i), stamp).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  done.store(true);
  for (auto& t : batchers) {
    t.join();
  }

  EXPECT_EQ(0u, violations.load());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
  // Batched and per-key reads agree on the final state.
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < kKeys; ++i) {
    key_storage.push_back("mk" + std::to_string(i));
  }
  for (const auto& ks : key_storage) {
    keys.emplace_back(ks);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
    EXPECT_EQ("gen-0012", values[static_cast<size_t>(i)]);
  }
}

TEST_F(ConcurrencyTest, ConcurrentWritersSerializeCleanly) {
  ASSERT_TRUE(DB::Open(options_, "/conc3", &db_).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> writers;
  std::atomic<uint64_t> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key =
            "w" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(WriteOptions(), key, "v").ok()) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(0u, errors.load());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kPerThread),
            db_->CountLiveEntries());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// (a) Many threads hammering Put and multi-op Write concurrently: every
// acknowledged key must be readable afterwards and stats.writes must count
// every operation exactly once (group commit must not double- or
// drop-count coalesced batches).
TEST_F(ConcurrencyTest, WriteStormAllKeysReadableAndCounted) {
  options_.write_buffer_size = 64 << 10;
  ASSERT_TRUE(DB::Open(options_, "/conc4", &db_).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;

  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "s" + std::to_string(t) + "-" + std::to_string(i);
        if (i % 4 == 0) {
          // Multi-op batch: two keys committed atomically.
          WriteBatch batch;
          batch.Put(key, "v");
          batch.Put(key + "-b", "v");
          if (!db_->Write(WriteOptions(), &batch).ok()) {
            ++errors;
          } else {
            ops.fetch_add(2);
          }
        } else {
          if (!db_->Put(WriteOptions(), key, "v").ok()) {
            ++errors;
          } else {
            ops.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(ops.load(), db_->statistics()->writes.load());

  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string key = "s" + std::to_string(t) + "-" + std::to_string(i);
      EXPECT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      if (i % 4 == 0) {
        EXPECT_TRUE(db_->Get(ReadOptions(), key + "-b", &value).ok()) << key;
      }
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// (b) Under contention the leader/follower queue must actually coalesce:
// strictly fewer WAL commits than operations, and groups of > 1 writer. A
// slow emulated WAL device keeps each leader busy long enough for
// followers to pile up behind it.
TEST_F(ConcurrencyTest, GroupCommitCoalescesUnderContention) {
  DeviceModel device;
  device.per_op_latency_micros = 200;
  device.bandwidth_bytes_per_sec = 1ull << 30;
  LatencyEnv lat_env(&env_, device, SystemClock());
  const CloseDbFirst close_db_first{&db_};
  options_.env = &lat_env;
  options_.write_buffer_size = 1 << 20;  // Keep flush churn out of the way.
  ASSERT_TRUE(DB::Open(options_, "/conc5", &db_).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "g" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(WriteOptions(), key, "v").ok()) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(0u, errors.load());

  const Statistics* stats = db_->statistics();
  uint64_t writes = stats->writes.load();
  uint64_t groups = stats->write_groups.load();
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kPerThread), writes);
  EXPECT_LE(groups, writes);
  EXPECT_LT(groups, writes) << "no coalescing happened under contention";
  Histogram sizes = stats->WriteGroupSizes();
  EXPECT_EQ(groups, sizes.num());
  EXPECT_GT(sizes.max(), 1.0);
}

// (c) Sync and non-sync writers interleaved: a sync follower must never be
// committed by a non-sync leader (durability downgrades are forbidden), but
// every write must land regardless of which kind of leader commits it.
TEST_F(ConcurrencyTest, MixedSyncAndAsyncWritersInterleave) {
  ASSERT_TRUE(DB::Open(options_, "/conc6", &db_).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      wo.sync = (t % 2 == 0);  // Even threads are sync writers.
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "m" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(wo, key, "v" + std::to_string(i)).ok()) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(0u, errors.load());

  const Statistics* stats = db_->statistics();
  // Every sync write is covered by a sync'd group commit; there were
  // kThreads/2 * kPerThread sync writes, so at least one sync happened and
  // no more syncs than groups.
  EXPECT_GE(stats->wal_syncs.load(), 1u);
  EXPECT_LE(stats->wal_syncs.load(), stats->write_groups.load());

  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string key = "m" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ("v" + std::to_string(i), value);
    }
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// (d) Parallel background engine under reader/writer stress: 4 background
// threads, concurrent range-disjoint compactions with subcompaction
// splitting, readers validating their own stripe throughout. The scheduler
// must actually overlap jobs (observed parallelism > 1) without ever
// publishing a version that violates the level invariants.
TEST_F(ConcurrencyTest, ParallelCompactionsOverlapWithoutCorruption) {
  options_.write_buffer_size = 4 << 10;
  options_.max_bytes_for_level_base = 16 << 10;
  options_.target_file_size = 4 << 10;
  options_.background_threads = 4;
  options_.max_subcompactions = 3;
  options_.compaction_granularity = CompactionGranularity::kPartial;
  ASSERT_TRUE(DB::Open(options_, "/conc7", &db_).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 3000;
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string key = "s" + std::to_string(t) + "/" +
                          std::to_string(i % 700);
        if (!db_->Put(WriteOptions(), key, "v" + std::to_string(i)).ok()) {
          ++errors;
        }
      }
    });
  }
  // Readers spot-check monotonicity of their stripe's visible values.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(500 + t);
      while (!stop_readers.load()) {
        std::string key = "s" + std::to_string(rnd.Uniform(kWriters)) + "/" +
                          std::to_string(rnd.Uniform(700));
        std::string value;
        Status s = db_->Get(ReadOptions(), key, &value);
        if (!s.ok() && !s.IsNotFound()) {
          ++errors;
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }
  ASSERT_EQ(0u, errors.load());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  Status s = db_->ValidateTreeInvariants();
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << db_->DebugLevelSummary();

  // Every stripe's final value must be the last one its writer put.
  std::string value;
  for (int t = 0; t < kWriters; ++t) {
    for (int k = 0; k < 700; ++k) {
      std::string key = "s" + std::to_string(t) + "/" + std::to_string(k);
      int last = (kPerWriter - 1) / 700 * 700 + k;
      if (last >= kPerWriter) {
        last -= 700;
      }
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      EXPECT_EQ("v" + std::to_string(last), value) << key;
    }
  }

  const Statistics* stats = db_->statistics();
  EXPECT_GT(stats->compactions.load(), 1u);
  EXPECT_GE(stats->max_compactions_running.load(), 1u);
  EXPECT_EQ(0u, stats->compactions_running.load())
      << "gauge must return to zero once the engine is idle";
}

// ---------------------------------------------------------------------------
// Regression tests for latent bugs surfaced by the thread-safety annotation
// sweep.
// ---------------------------------------------------------------------------

// VlogManager::active_file_number() used to read the field without taking
// the manager's mutex, racing with OpenActive() during GC roll-over. The
// locked read must observe a monotone, in-range sequence (and is clean
// under TSan, which flagged the original bare read).
TEST_F(ConcurrencyTest, VlogActiveFileNumberIsSafeDuringRollover) {
  ASSERT_TRUE(env_.CreateDir("/vlogconc").ok());
  VlogManager vlog("/vlogconc", &env_);
  ASSERT_TRUE(vlog.OpenActive(1).ok());

  constexpr uint64_t kLastLog = 200;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::thread roller([&] {
    for (uint64_t n = 2; n <= kLastLog; ++n) {
      if (!vlog.OpenActive(n).ok()) {
        ++errors;
        break;
      }
    }
    done.store(true);
  });
  uint64_t last_seen = 0;
  while (!done.load()) {
    uint64_t n = vlog.active_file_number();
    if (n < last_seen || n > kLastLog) {
      ++errors;
    }
    last_seen = n;
  }
  roller.join();
  EXPECT_EQ(0u, errors.load());
  EXPECT_EQ(kLastLog, vlog.active_file_number());
}

// Vlog GC must surface a failure and leave the old log, and its data,
// intact: a log is deleted only once nothing points into it.
TEST_F(ConcurrencyTest, VlogGcRelocationFailureDoesNotLoseData) {
  FaultInjectionEnv fault_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &fault_env;
  options_.kv_separation = true;
  options_.kv_separation_threshold = 64;
  ASSERT_TRUE(DB::Open(options_, "/gcfail", &db_).ok());

  const std::string big(256, 'v');
  for (int i = 0; i < 10; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, big + std::to_string(i)).ok());
  }
  // Overwrite half inline so the old log holds both garbage and live data.
  for (int i = 0; i < 5; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, "small").ok());
  }

  fault_env.SetFailWrites(true);
  Status gc = db_->GarbageCollectVlog();
  EXPECT_FALSE(gc.ok()) << "GC must surface relocation failures";
  fault_env.SetFailWrites(false);

  // The old log must have survived: every live separated value is still
  // readable with its original contents.
  std::string value;
  for (int i = 5; i < 10; ++i) {
    std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(big + std::to_string(i), value) << key;
  }
}

/// Cuts the first value-log append after Arm() short: half the record
/// reaches the file, then the append fails, as a write() that fails part
/// way can.
class ShortVlogAppendEnv : public EnvWrapper {
 public:
  explicit ShortVlogAppendEnv(Env* base) : EnvWrapper(base) {}
  void Arm() { armed_ = true; }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    Status s = EnvWrapper::NewWritableFile(fname, result);
    if (s.ok() && fname.ends_with(".vlog")) {
      *result = std::make_unique<File>(std::move(*result), &armed_);
    }
    return s;
  }

 private:
  class File : public WritableFileWrapper {
   public:
    File(std::unique_ptr<WritableFile> target, std::atomic<bool>* armed)
        : WritableFileWrapper(std::move(target)), armed_(armed) {}
    Status Append(const Slice& data) override {
      if (!armed_->exchange(false)) {
        return WritableFileWrapper::Append(data);
      }
      (void)WritableFileWrapper::Append(Slice(data.data(), data.size() / 2));
      return Status::IOError("injected short write");
    }

   private:
    std::atomic<bool>* const armed_;
  };

  std::atomic<bool> armed_{false};
};

// A relocation append that fails part way leaves part of a record at the
// active log's end, which user writes share. No later write may be handed
// a pointer to those bytes: a later separated Put fails, or it reads back.
TEST_F(ConcurrencyTest, FailedGcRelocationMisdirectsNoLaterWrite) {
  ShortVlogAppendEnv short_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &short_env;
  options_.kv_separation = true;
  options_.kv_separation_threshold = 64;
  ASSERT_TRUE(DB::Open(options_, "/gcshort", &db_).ok());

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 10; ++i) {
    const std::string key = "k" + std::to_string(i);
    acked[key] = std::string(256, 'v') + std::to_string(i);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, acked[key]).ok());
  }
  // The flush rolls the log: GC then relocates every value, and its first
  // append is cut short.
  ASSERT_TRUE(db_->Flush().ok());
  short_env.Arm();
  EXPECT_FALSE(db_->GarbageCollectVlog().ok());

  const std::string later(256, 'w');
  if (db_->Put(WriteOptions(), "later", later).ok()) {
    acked["later"] = later;
  }
  for (const auto& [key, value] : acked) {
    std::string got;
    Status s = db_->Get(ReadOptions(), key, &got);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(value, got) << key;
  }
}

// Vlog GC relocates inside the compaction stream, under each entry's own
// sequence number: an overwrite acknowledged while GC runs shadows the
// relocated copy, so no overwrite reads back the old value.
TEST_F(ConcurrencyTest, VlogGcLosesNoConcurrentOverwrite) {
  options_.kv_separation = true;
  options_.kv_separation_threshold = 100;
  constexpr int kKeys = 2000;
  constexpr int kRuns = 20;
  auto key_of = [](int i) { return "key" + std::to_string(10000 + i); };
  const std::string old_value(400, 'o');
  const std::string new_value(400, 'n');
  for (int run = 0; run < kRuns; ++run) {
    SCOPED_TRACE(run);
    const std::string dbname = "/gcwriter" + std::to_string(run);
    ASSERT_TRUE(DB::Open(options_, dbname, &db_).ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), key_of(i), old_value).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());

    std::atomic<int> failed_writes{0};
    std::thread writer([&] {
      for (int i = 0; i < kKeys; ++i) {
        if (!db_->Put(WriteOptions(), key_of(i), new_value).ok()) {
          ++failed_writes;
        }
      }
    });
    Status gc = db_->GarbageCollectVlog();
    writer.join();
    ASSERT_TRUE(gc.ok()) << gc.ToString();
    ASSERT_EQ(0, failed_writes.load());

    int lost = 0;
    std::string value;
    for (int i = 0; i < kKeys; ++i) {
      if (!db_->Get(ReadOptions(), key_of(i), &value).ok() ||
          value != new_value) {
        ++lost;
      }
    }
    EXPECT_EQ(0, lost);
    EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
    db_.reset();
  }
}

// CompactRange makes one top-down pass: a run flushed meanwhile stays where
// it lands, so a client that keeps writing cannot keep the pass going.
TEST_F(ConcurrencyTest, CompactRangeReturnsWhileAClientWrites) {
  ASSERT_TRUE(DB::Open(options_, "/crwriter", &db_).ok());
  constexpr int kKeys = 20000;
  auto key_of = [](uint64_t i) { return "key" + std::to_string(100000 + i); };
  const std::string value(100, 'v');
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key_of(i), value).ok());
  }
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  std::atomic<bool> compact_range_returned{false};
  std::atomic<bool> writer_timed_out{false};
  std::thread writer([&] {
    Random rnd(7);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!compact_range_returned.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        writer_timed_out.store(true);
        return;
      }
      if (!db_->Put(WriteOptions(), key_of(rnd.Uniform(kKeys)), value).ok()) {
        return;
      }
    }
  });
  Status s = db_->CompactRange();
  compact_range_returned.store(true);
  writer.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(writer_timed_out.load())
      << "CompactRange() returned only after the writer stopped";
  EXPECT_TRUE(db_->ValidateTreeInvariants().ok());
}

// A transient flush failure under concurrent writers must heal through the
// retry/backoff path: writers stall while the memtable quota is exhausted,
// the retried flush drains it, and nothing is lost — all without a reopen
// or an explicit Resume().
TEST_F(ConcurrencyTest, ConcurrentWritersSurviveTransientFlushFailure) {
  FaultInjectionEnv fault_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &fault_env;
  options_.write_buffer_size = 4 << 10;
  options_.background_error_retry_initial_micros = 500;
  options_.background_error_retry_max_micros = 5000;
  ASSERT_TRUE(DB::Open(options_, "/softconc", &db_).ok());

  // The next two table-file syncs fail (flush output lands via Sync), then
  // the device heals.
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpSync;
  rule.one_in = 1;
  rule.max_failures = 2;
  fault_env.AddRule(rule);

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 400;
  std::atomic<uint64_t> write_errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::string payload(64, static_cast<char>('a' + t));
      for (int i = 0; i < kWritesPerThread; ++i) {
        std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(WriteOptions(), key, payload).ok()) {
          ++write_errors;
        }
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }

  EXPECT_EQ(0u, write_errors.load());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_GE(fault_env.injected_faults(), 1u);
  const Statistics* stats = db_->statistics();
  EXPECT_GE(stats->bg_error_soft.load(), 1u);
  EXPECT_GE(stats->bg_retry_success.load(), 1u);
  EXPECT_EQ(0u, stats->bg_error_hard.load());

  // Every acked write is readable.
  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWritesPerThread; ++i) {
      std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    }
  }
  ASSERT_TRUE(db_->ValidateTreeInvariants().ok());
}

// A WAL sync failure is a hard error: the DB drops to read-only mode (reads
// keep serving, writes fail fast), and Resume() rotates the poisoned WAL,
// re-persists its acked contents, and restores write service.
TEST_F(ConcurrencyTest, WalHardErrorReadOnlyModeAndResume) {
  FaultInjectionEnv fault_env(&env_);
  const CloseDbFirst close_db_first{&db_};
  options_.env = &fault_env;
  ASSERT_TRUE(DB::Open(options_, "/walhard", &db_).ok());

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "pre" + std::to_string(i), "v").ok());
  }

  // Exactly one WAL sync fails; the write that requested it must error.
  FaultRule rule;
  rule.file_kinds = kFaultWal;
  rule.ops = kFaultOpSync;
  rule.one_in = 1;
  rule.max_failures = 1;
  fault_env.AddRule(rule);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  EXPECT_FALSE(db_->Put(sync_wo, "poison", "v").ok());

  // Hard error: writes fail fast, reads keep serving the last view.
  EXPECT_FALSE(db_->Put(WriteOptions(), "rejected", "v").ok());
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "pre0", &value).ok());
  EXPECT_EQ(1u, db_->statistics()->bg_error_hard.load());
  EXPECT_TRUE(db_->BackgroundErrorState().hard());

  // Resume rotates the WAL and flushes the rescued memtable; write service
  // returns and pre-error acked writes are still there.
  ASSERT_TRUE(db_->Resume().ok());
  EXPECT_TRUE(db_->BackgroundErrorState().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "after", "v").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Get(ReadOptions(), "pre" + std::to_string(i), &value).ok());
  }
  ASSERT_TRUE(db_->Get(ReadOptions(), "after", &value).ok());
}

}  // namespace
}  // namespace lsmlab
