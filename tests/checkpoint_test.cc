// Online checkpoint/backup & restore (DESIGN.md, "Checkpoint & restore"),
// hardened under fault injection: consistent cuts under write load, the
// CHECKPOINT completion-record gate, ENOSPC classification, the
// FaultInjectionEnv link/synced-state contract, and the VerifyChecksums
// scrub.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/db.h"
#include "db/filename.h"
#include "db/merge_operator.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

Options SmallDBOptions(Env* env) {
  Options options;
  options.env = env;
  options.write_buffer_size = 2 << 10;
  options.level0_file_num_compaction_trigger = 2;
  options.max_bytes_for_level_base = 8 << 10;
  options.target_file_size = 4 << 10;
  options.merge_operator = NewStringAppendOperator(',');
  options.background_error_retry_initial_micros = 200;
  options.background_error_retry_max_micros = 2000;
  return options;
}

// --- Basic round trip ------------------------------------------------------

TEST(CheckpointTest, RoundTripExcludesPostCutWrites) {
  MemEnv env;
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->Delete(WriteOptions(), "key7").ok());
  ASSERT_TRUE(db->Merge(WriteOptions(), "merged", "a").ok());
  ASSERT_TRUE(db->Merge(WriteOptions(), "merged", "b").ok());
  ASSERT_TRUE(db->Flush().ok());  // Some state in tables...
  ASSERT_TRUE(db->Put(WriteOptions(), "inwal", "yes").ok());  // ...some in WAL.

  ASSERT_TRUE(db->Checkpoint("/ckpt").ok());

  // Post-cut writes must not leak into the backup.
  ASSERT_TRUE(db->Put(WriteOptions(), "postcut", "no").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "key0", "overwritten").ok());

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());

  std::string value;
  ASSERT_TRUE(restored->Get(ReadOptions(), "key0", &value).ok());
  EXPECT_EQ("v0", value);  // The pre-cut value, not the overwrite.
  ASSERT_TRUE(restored->Get(ReadOptions(), "inwal", &value).ok());
  EXPECT_EQ("yes", value);  // WAL-only state survives via the sealed log.
  ASSERT_TRUE(restored->Get(ReadOptions(), "merged", &value).ok());
  EXPECT_EQ("a,b", value);
  EXPECT_TRUE(restored->Get(ReadOptions(), "key7", &value).IsNotFound());
  EXPECT_TRUE(restored->Get(ReadOptions(), "postcut", &value).IsNotFound());
  EXPECT_TRUE(restored->ValidateTreeInvariants().ok());

  // The live DB is untouched by checkpoint + restore.
  ASSERT_TRUE(db->Get(ReadOptions(), "key0", &value).ok());
  EXPECT_EQ("overwritten", value);
  ASSERT_TRUE(db->Get(ReadOptions(), "postcut", &value).ok());
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());

  // The restored DB is fully independent: writes to it never reach the
  // backup or the source.
  ASSERT_TRUE(restored->Put(WriteOptions(), "restonly", "x").ok());
  ASSERT_TRUE(restored->Flush().ok());
  EXPECT_TRUE(db->Get(ReadOptions(), "restonly", &value).IsNotFound());
}

TEST(CheckpointTest, RestoreWithKvSeparationAndSnapshotPinned) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.kv_separation = true;
  options.kv_separation_threshold = 32;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const std::string fat(100, 'V');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "key" + std::to_string(i), fat).ok());
  }
  // An outstanding snapshot must not block (or be broken by) a checkpoint.
  SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Checkpoint("/ckpt").ok());
  db->ReleaseSnapshot(snap);

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        restored->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << "key" << i;
    EXPECT_EQ(fat, value);  // Vlog-resident values resolve after restore.
  }
  EXPECT_TRUE(restored->VerifyChecksums().ok());
}

// A checkpoint taken while vlog GC relocates values links every log its
// tables point into: each value resolves after restore.
TEST(CheckpointTest, CheckpointDuringVlogGcRestoresEveryValue) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.kv_separation = true;
  options.kv_separation_threshold = 32;
  auto key_of = [](int i) { return "key" + std::to_string(1000 + i); };
  std::map<std::string, std::string> latest;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; i += round + 1) {
      const std::string value =
          std::string(100, static_cast<char>('a' + round)) + std::to_string(i);
      ASSERT_TRUE(db->Put(WriteOptions(), key_of(i), value).ok());
      latest[key_of(i)] = value;
    }
  }
  Status gc_status;
  std::thread gc([&] { gc_status = db->GarbageCollectVlog(); });
  Status checkpoint_status = db->Checkpoint("/ckpt");
  gc.join();
  ASSERT_TRUE(gc_status.ok()) << gc_status.ToString();
  ASSERT_TRUE(checkpoint_status.ok()) << checkpoint_status.ToString();

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());
  for (const auto& [key, value] : latest) {
    std::string got;
    Status s = restored->Get(ReadOptions(), key, &got);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    EXPECT_EQ(value, got) << key;
  }
  EXPECT_TRUE(restored->ValidateTreeInvariants().ok());
  EXPECT_TRUE(restored->VerifyChecksums().ok());
}

// --- Randomized equivalence sweep (N = 1 and N = 4) ------------------------

void RunEquivalenceSweep(int num_shards, uint64_t seed) {
  Random rng(seed);
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.num_shards = num_shards;
  if (num_shards > 1) {
    options.shard_split_keys = {"key25", "key50", "key75"};
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  std::map<std::string, std::string> model;
  const int total_ops = 200 + static_cast<int>(rng.Uniform(200));
  const int cut = 50 + static_cast<int>(rng.Uniform(total_ops - 50));
  SequenceNumber snap = 0;

  for (int op = 0; op < total_ops; ++op) {
    if (op == cut / 2) {
      snap = db->GetSnapshot();  // Pinned across the checkpoint.
    }
    if (op == cut) {
      ASSERT_TRUE(db->Checkpoint("/ckpt").ok()) << "cut at op " << op;
    }
    char key[8];
    std::snprintf(key, sizeof(key), "key%02d",
                  static_cast<int>(rng.Uniform(100)));
    const uint64_t pick = rng.Uniform(10);
    Status s;
    if (pick < 6) {
      std::string value = "v" + std::to_string(op);
      if (rng.OneIn(6)) {
        value.append(120, 'x');
      }
      s = db->Put(WriteOptions(), key, value);
      if (op < cut) {
        model[key] = value;
      }
    } else if (pick < 8) {
      s = db->Delete(WriteOptions(), key);
      if (op < cut) {
        model.erase(key);
      }
    } else {
      std::string operand = "m" + std::to_string(op);
      s = db->Merge(WriteOptions(), key, operand);
      if (op < cut) {
        auto it = model.find(key);
        if (it == model.end()) {
          model[key] = operand;
        } else {
          it->second += "," + operand;
        }
      }
    }
    ASSERT_TRUE(s.ok()) << "op " << op << ": " << s.ToString();
    if (rng.OneIn(50)) {
      ASSERT_TRUE(db->Flush().ok());
    }
  }
  if (snap != 0) {
    db->ReleaseSnapshot(snap);
  }

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());

  // Exact model equivalence at the cut, key by key and via a full scan.
  std::string value;
  for (int k = 0; k < 100; ++k) {
    char key[8];
    std::snprintf(key, sizeof(key), "key%02d", k);
    Status gs = restored->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(gs.IsNotFound()) << "shards=" << num_shards << " " << key;
    } else {
      ASSERT_TRUE(gs.ok()) << "shards=" << num_shards << " " << key << ": "
                           << gs.ToString();
      EXPECT_EQ(it->second, value) << "shards=" << num_shards << " " << key;
    }
  }
  auto iter = restored->NewIterator(ReadOptions());
  size_t scanned = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ++scanned;
    auto it = model.find(iter->key().ToString());
    ASSERT_TRUE(it != model.end()) << "phantom key " << iter->key().ToString();
    EXPECT_EQ(it->second, iter->value().ToString());
  }
  EXPECT_EQ(model.size(), scanned) << "shards=" << num_shards;
  EXPECT_TRUE(restored->ValidateTreeInvariants().ok());
  EXPECT_TRUE(restored->VerifyChecksums().ok());
}

TEST(CheckpointTest, RandomizedEquivalenceSingleShard) {
  for (uint64_t seed : {101ull, 202ull, 303ull}) {
    RunEquivalenceSweep(1, seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CheckpointTest, RandomizedEquivalenceFourShards) {
  for (uint64_t seed : {404ull, 505ull, 606ull}) {
    RunEquivalenceSweep(4, seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// --- Checkpoint under concurrent writers -----------------------------------

// Four writer threads hammer the DB (one per shard range, plus cross-shard
// batches) while a checkpoint is taken mid-load. The restored DB must hold,
// for every writer, a clean prefix of its monotone counter — and the
// cross-shard batch must never be split by the cut: its four keys (one per
// shard) are written atomically with equal values, so the restored copies
// must all be equal. Run under TSan in CI.
TEST(CheckpointTest, ConsistentCutUnderConcurrentWriters) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.num_shards = 4;
  options.shard_split_keys = {"b", "c", "d"};

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  std::atomic<bool> stop{false};
  // Per-shard writers: shard k's thread writes a<k>/b<k>/c<k>/d<k> = i.
  std::vector<std::thread> writers;
  const char prefixes[4] = {'a', 'b', 'c', 'd'};
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t]() {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        std::string key(1, prefixes[t]);
        key += "-mono";
        Status s = db->Put(WriteOptions(), key, std::to_string(i));
        if (!s.ok()) {
          ADD_FAILURE() << "writer " << t << ": " << s.ToString();
          return;
        }
      }
    });
  }
  // Cross-shard writer: one atomic batch touching all four shards.
  writers.emplace_back([&]() {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      WriteBatch batch;
      for (char p : prefixes) {
        batch.Put(std::string(1, p) + "-xs", std::to_string(i));
      }
      Status s = db->Write(WriteOptions(), &batch);
      if (!s.ok()) {
        ADD_FAILURE() << "cross-shard writer: " << s.ToString();
        return;
      }
    }
  });

  // Let the writers get going, then checkpoint mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status cs = db->Checkpoint("/ckpt");
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) {
    w.join();
  }
  ASSERT_TRUE(cs.ok()) << cs.ToString();
  ASSERT_TRUE(db->ValidateTreeInvariants().ok());

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());

  // The cross-shard batch is all-or-nothing across the cut.
  std::vector<std::string> xs_values;
  for (char p : prefixes) {
    std::string value;
    Status s = restored->Get(ReadOptions(), std::string(1, p) + "-xs", &value);
    if (s.ok()) {
      xs_values.push_back(value);
    } else {
      ASSERT_TRUE(s.IsNotFound()) << s.ToString();
    }
  }
  ASSERT_TRUE(xs_values.empty() || xs_values.size() == 4u)
      << "cross-shard batch split by the checkpoint cut";
  for (const std::string& v : xs_values) {
    EXPECT_EQ(xs_values[0], v)
        << "cross-shard batch split by the checkpoint cut";
  }
  EXPECT_TRUE(restored->ValidateTreeInvariants().ok());
}

// --- Completion-record gate -------------------------------------------------

TEST(CheckpointTest, TornCheckpointIsRejectedEverywhere) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/21);
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Persistent: every table link into the checkpoint fails, exhausting
  // LinkFileWithRetry's attempts, so the capture dies after the WAL cut but
  // before the manifest snapshot. (A single scripted failure would be
  // absorbed by the retry loop — see TransientLinkFaultHealsThroughRetry.)
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpLink;
  rule.one_in = 1;
  env.AddRule(rule);
  Status cs = db->Checkpoint("/torn");
  ASSERT_FALSE(cs.ok()) << "scripted link fault must fail the checkpoint";
  env.ClearRules();

  // The directory holds the in-progress marker and no completion record:
  // Restore refuses it, and DB::Open refuses to treat it as a database.
  EXPECT_TRUE(env.FileExists(CheckpointInProgressFileName("/torn")));
  EXPECT_FALSE(env.FileExists(CheckpointMarkerFileName("/torn")));
  Status rs = DB::Restore(options, "/torn", "/never");
  EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
  std::unique_ptr<DB> never;
  EXPECT_FALSE(DB::Open(options, "/torn", &never).ok())
      << "an interrupted checkpoint must never open as a valid DB";

  // A directory with no markers at all is rejected too.
  EXPECT_TRUE(
      DB::Restore(options, "/nonexistent", "/never2").IsCorruption());

  // The source DB is unharmed and a clean retry into a fresh dir succeeds.
  ASSERT_TRUE(db->Checkpoint("/good").ok());
  ASSERT_TRUE(DB::Restore(options, "/good", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());
  std::string value;
  ASSERT_TRUE(restored->Get(ReadOptions(), "key0", &value).ok());
  EXPECT_EQ(std::string(64, 'v'), value);
}

TEST(CheckpointTest, TransientLinkFaultHealsThroughRetry) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/22);
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Two transient link failures: LinkFileWithRetry's backoff must absorb
  // them and the checkpoint must complete.
  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpLink;
  rule.one_in = 1;
  rule.max_failures = 2;
  env.AddRule(rule);
  ASSERT_TRUE(db->Checkpoint("/ckpt").ok());
  EXPECT_GE(env.injected_faults(), 2u);
  env.ClearRules();

  ASSERT_TRUE(DB::Restore(options, "/ckpt", "/restored").ok());
  std::unique_ptr<DB> restored;
  ASSERT_TRUE(DB::Open(options, "/restored", &restored).ok());
  std::string value;
  ASSERT_TRUE(restored->Get(ReadOptions(), "key199", &value).ok());
}

TEST(CheckpointTest, RestoreRefusesOccupiedTarget) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db->Checkpoint("/ckpt").ok());
  // Restoring over a live database directory must refuse, not clobber.
  Status s = DB::Restore(options, "/ckpt", "/db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // And a second checkpoint into the same directory must refuse too.
  EXPECT_TRUE(db->Checkpoint("/ckpt").IsInvalidArgument());
}

// --- FaultInjectionEnv link contract (the satellite fix) --------------------

// A hard link inherits the source's synced prefix: a crash after linking a
// half-synced file rewinds BOTH names to the synced prefix, and a crash
// after linking a fully-synced file loses nothing. Without the FileState
// copy the target would either keep unsynced bytes (phantom durability) or
// be spuriously torn — both corrupt checkpoints.
TEST(CheckpointTest, FaultEnvLinkInheritsSyncedState) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/23);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/src", &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("-tail").ok());  // Unsynced.
  ASSERT_TRUE(file->Close().ok());

  ASSERT_TRUE(env.LinkFile("/src", "/linked").ok());
  ASSERT_TRUE(env.DropUnsyncedData().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, "/src", &contents).ok());
  EXPECT_EQ("durable", contents);
  ASSERT_TRUE(ReadFileToString(&env, "/linked", &contents).ok());
  EXPECT_EQ("durable", contents)
      << "linked file must rewind to the source's synced prefix";

  // Linking a file the env never tracked (pre-existing, i.e. fully durable)
  // keeps the target fully durable as well.
  ASSERT_TRUE(WriteStringToFile(&base, "immutable", "/old").ok());
  ASSERT_TRUE(env.LinkFile("/old", "/old-linked").ok());
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  ASSERT_TRUE(ReadFileToString(&env, "/old-linked", &contents).ok());
  EXPECT_EQ("immutable", contents);

  // Contract basics: missing source fails, existing target fails.
  EXPECT_TRUE(env.LinkFile("/missing", "/x").IsNotFound());
  EXPECT_FALSE(env.LinkFile("/old", "/old-linked").ok());
}

// --- ENOSPC classification ---------------------------------------------------

// Disk-full on a flush output is soft: the memtable is untouched, so the
// flush retries with backoff and heals once space frees up — no reopen, no
// Resume().
TEST(CheckpointTest, EnospcOnFlushOutputAutoHeals) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/24);
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  env.AddRule(FaultRule::NoSpace(kFaultTable, kFaultOpSync,
                                 /*at_op_index=*/0, /*max_failures=*/2));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok()) << "flush must heal through soft retries";

  const Statistics* stats = db->statistics();
  EXPECT_GE(stats->bg_error_soft.load(), 1u);
  EXPECT_GE(stats->bg_retry_success.load(), 1u);
  EXPECT_EQ(0u, stats->bg_error_hard.load());
  ErrorState state = db->BackgroundErrorState();
  EXPECT_TRUE(state.ok());
  EXPECT_TRUE(IsNoSpaceError(state.first_status))
      << state.first_status.ToString();
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key0", &value).ok());
}

// Disk-full on the WAL is hard: the log's on-disk offset is ambiguous, so
// the DB goes read-only until the operator frees space and calls Resume().
TEST(CheckpointTest, EnospcOnWalIsHardUntilResume) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/25);
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "before", "v").ok());

  env.AddRule(FaultRule::NoSpace(kFaultWal, kFaultOpAppend,
                                 /*at_op_index=*/0, /*max_failures=*/1));
  Status ws = db->Put(WriteOptions(), "doomed", "v");
  ASSERT_FALSE(ws.ok());
  EXPECT_TRUE(IsNoSpaceError(ws)) << ws.ToString();
  ErrorState state = db->BackgroundErrorState();
  EXPECT_TRUE(state.hard());
  EXPECT_EQ(ErrorSource::kWal, state.source);

  // Read-only until resumed; a checkpoint must refuse too (its WAL cut
  // cannot be trusted under a hard error).
  EXPECT_FALSE(db->Put(WriteOptions(), "still-doomed", "v").ok());
  EXPECT_FALSE(db->Checkpoint("/no-ckpt").ok());

  env.ClearRules();  // "The operator freed disk space."
  ASSERT_TRUE(db->Resume().ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "after", "v").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "before", &value).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "after", &value).ok());
  EXPECT_GE(db->statistics()->bg_error_hard.load(), 1u);
  EXPECT_GE(db->statistics()->resume_calls.load(), 1u);
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());
}

// --- VerifyChecksums scrub ---------------------------------------------------

TEST(CheckpointTest, ScrubCleanThenDetectsCorruption) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/26);
  Options options = SmallDBOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->WaitForBackgroundWork().ok());

  ASSERT_TRUE(db->VerifyChecksums().ok());
  const Statistics* stats = db->statistics();
  EXPECT_GT(stats->scrub_bytes_verified.load(), 0u);
  EXPECT_EQ(0u, stats->scrub_corruptions.load());
  EXPECT_NE(std::string::npos,
            db->DebugLevelSummary().find(
                "\nscrub_bytes_verified=" +
                std::to_string(stats->scrub_bytes_verified.load()) + "\n"));

  // Silent bit rot on table reads: the scrub's verify_checksums walk must
  // catch it and name the file.
  FaultRule rot;
  rot.file_kinds = kFaultTable;
  rot.ops = kFaultOpRead;
  rot.one_in = 1;
  rot.flip_bit = true;
  env.AddRule(rot);
  Status s = db->VerifyChecksums();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find(".sst"))
      << "corruption report must carry file provenance: " << s.ToString();
  EXPECT_GE(stats->scrub_corruptions.load(), 1u);
  env.ClearRules();
  EXPECT_TRUE(db->VerifyChecksums().ok()) << "rot gone, scrub clean again";
}

TEST(CheckpointTest, ScrubCoversVlogs) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.kv_separation = true;
  options.kv_separation_threshold = 32;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(100, 'V'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  const uint64_t before = db->statistics()->scrub_bytes_verified.load();
  ASSERT_TRUE(db->VerifyChecksums().ok());
  // Tables AND vlogs counted: verified bytes exceed total sst bytes.
  EXPECT_GT(db->statistics()->scrub_bytes_verified.load() - before,
            db->TotalSstBytes());
}

// A crash can tear the last record of a value log, and recovery then ends
// the write order before the write that pointed at it. The scrub ends its
// walk of that log at the torn record in the same way, instead of calling
// it corruption.
TEST(CheckpointTest, ScrubEndsAValueLogAtItsTornTail) {
  MemEnv env;
  Options options = SmallDBOptions(&env);
  options.kv_separation = true;
  options.kv_separation_threshold = 32;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "a", std::string(100, 'a')).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "b", std::string(100, 'b')).ok());
  db.reset();

  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  uint64_t newest = 0;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kVlogFile) {
      newest = std::max(newest, number);
    }
  }
  const std::string vlog = VlogFileName("/db", newest);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(&env, vlog, &contents).ok());
  ASSERT_FALSE(contents.empty());
  contents.pop_back();
  ASSERT_TRUE(WriteStringToFile(&env, contents, vlog).ok());

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "a", &got).ok());
  EXPECT_TRUE(db->Get(ReadOptions(), "b", &got).IsNotFound());
  Status s = db->VerifyChecksums();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(0u, db->statistics()->scrub_corruptions.load());
}

}  // namespace
}  // namespace lsmlab
