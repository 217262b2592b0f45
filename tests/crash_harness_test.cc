// Randomized crash-consistency harness (ISSUE 5 tentpole, layer 3).
//
// Each iteration runs a mixed Put/Delete/Merge workload against a DB whose
// I/O goes through FaultInjectionEnv, "crashes" at a randomized point
// (freeze filesystem -> close DB -> drop unsynced data, possibly leaving a
// torn tail), reopens, and verifies:
//
//   1. every write acknowledged under sync=true survives the crash, and so
//      does every acknowledged batch that spans shards (at N > 1);
//   2. no write half-appears: each batch carries a monotone "!counter" put,
//      so the recovered counter k proves the recovered state is exactly the
//      batch prefix [0..k] — verified key-by-key against a replayed model;
//   3. the reopened tree passes ValidateTreeInvariants().
//
// Everything derives from one seed printed on entry; to reproduce a failure
// run: crash_harness_test --seed=<printed seed> --iters=<n>. Iterations
// also randomize background parallelism and (one in three) inject transient
// table-write faults so crashes land while the retry/backoff machinery is
// mid-recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
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

uint64_t g_seed = 0xc0ffee5eed;
int g_iters = 50;
int g_start = 0;  // First iteration index; --start=<i> reproduces one iter.

// LSMLAB_TEST_SHARDS=N runs the randomized harness against the sharded
// facade: the key universe key00..key39 is split {"key10","key20","key30"}
// and every batch's "!counter" put lands in shard 0, so most batches span
// shards and commit through the cross-shard path.
int TestShards() {
  const char* value = std::getenv("LSMLAB_TEST_SHARDS");
  if (value == nullptr || value[0] == '\0') {
    return 1;
  }
  return std::max(1, std::atoi(value));
}

// LSMLAB_TEST_INDEX=learned runs the harness with learned (PLR) per-table
// indexes: every flush/compaction output and every recovery then goes
// through the model-fit and digest-certification paths.
IndexType TestIndexType() {
  const char* value = std::getenv("LSMLAB_TEST_INDEX");
  if (value != nullptr && std::string(value) == "learned") {
    return IndexType::kLearnedPLR;
  }
  return IndexType::kBinarySearchFence;
}

// LSMLAB_TEST_CHECKPOINT=1 adds a checkpoint axis: each iteration takes an
// online backup at a random op index mid-workload, crashes as usual, then
// restores the backup into a fresh directory and verifies it holds exactly
// the workload prefix that preceded the cut (model-replay equivalence). A
// checkpoint that failed under injected faults must leave a directory that
// neither restores nor opens.
bool TestCheckpoint() {
  const char* value = std::getenv("LSMLAB_TEST_CHECKPOINT");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

// LSMLAB_TEST_KVSEP=1 adds a kv-separation axis: the fat values go to the
// value log, and each iteration runs one GarbageCollectVlog() at a random op
// index, so crashes land around relocations and value-log deletions.
bool TestKvSeparation() {
  const char* value = std::getenv("LSMLAB_TEST_KVSEP");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

// One model mutation; a batch is a vector of these plus the counter put.
struct ModelOp {
  enum Kind { kPut, kDelete, kMerge } kind;
  std::string key;
  std::string value;  // Put value or merge operand.
};

void ApplyToModel(std::map<std::string, std::string>* model,
                  const ModelOp& op) {
  switch (op.kind) {
    case ModelOp::kPut:
      (*model)[op.key] = op.value;
      break;
    case ModelOp::kDelete:
      model->erase(op.key);
      break;
    case ModelOp::kMerge: {
      auto it = model->find(op.key);
      if (it == model->end()) {
        (*model)[op.key] = op.value;
      } else {
        it->second += ",";  // Mirrors NewStringAppendOperator(',').
        it->second += op.value;
      }
      break;
    }
  }
}

std::string CounterValue(int op_index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08d", op_index);
  return buf;
}

// Runs one crash-reopen cycle; returns false (with gtest failures recorded)
// if any invariant broke.
void RunIteration(uint64_t seed, int iter) {
  Random rng(seed + static_cast<uint64_t>(iter) * 0x9e3779b97f4a7c15ull);

  MemEnv base;
  FaultInjectionEnv env(&base, rng.Next64());

  Options options;
  options.env = &env;
  options.write_buffer_size = 2 << 10;   // Tiny: crashes land mid-flush.
  options.level0_file_num_compaction_trigger = 2;  // ...and mid-compaction.
  options.max_bytes_for_level_base = 8 << 10;
  options.target_file_size = 4 << 10;
  options.background_threads = 1 + static_cast<int>(rng.Uniform(3));
  options.max_write_buffer_number = 2 + static_cast<int>(rng.Uniform(3));
  options.merge_operator = NewStringAppendOperator(',');
  // Fast retries so transient-fault iterations heal within the test budget.
  options.background_error_retry_initial_micros = 200;
  options.background_error_retry_max_micros = 2000;
  options.num_shards = TestShards();
  options.index_type = TestIndexType();
  const bool kvsep_axis = TestKvSeparation();
  options.kv_separation = kvsep_axis;
  options.kv_separation_threshold = 16;
  if (options.num_shards > 1) {
    options.shard_split_keys.clear();
    for (int k = 1; k < options.num_shards; ++k) {
      char split[8];
      std::snprintf(split, sizeof(split), "key%02d",
                    40 * k / options.num_shards);
      options.shard_split_keys.push_back(split);
    }
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/crash", &db).ok()) << "iter " << iter;

  // One in three iterations: a transient device fault window on table
  // writes, so the crash interleaves with soft-error retry/backoff.
  if (rng.OneIn(3)) {
    FaultRule rule;
    rule.file_kinds = kFaultTable;
    rule.ops = rng.OneIn(2) ? kFaultOpSync : kFaultOpAppend;
    rule.one_in = 4;
    rule.max_failures = 1 + static_cast<int64_t>(rng.Uniform(2));
    env.AddRule(rule);
  }

  const int total_ops = 60 + static_cast<int>(rng.Uniform(120));
  const int crash_point = static_cast<int>(rng.Uniform(total_ops + 1));

  // Checkpoint axis: back up mid-workload at a random op index. The
  // workload is single-threaded, so a checkpoint taken before op `cp_op`
  // must hold exactly the batch prefix [0..cp_op-1] — verified after the
  // crash by restoring into a fresh directory.
  const bool checkpoint_axis = TestCheckpoint();
  const int cp_op =
      checkpoint_axis ? static_cast<int>(rng.Uniform(crash_point + 1)) : -1;
  bool cp_taken = false;
  Status cp_status;
  // Kv-separation axis: one value-log GC at a random op index. Only an
  // injected fault may fail it.
  const int gc_op =
      kvsep_axis ? static_cast<int>(rng.Uniform(crash_point + 1)) : -1;

  std::vector<std::vector<ModelOp>> history;
  // Highest op index acked under sync=true, or acked spanning shards: a
  // cross-shard batch syncs every slice and its commit record.
  int durable = -1;
  for (int op = 0; op < crash_point; ++op) {
    if (checkpoint_axis && op == cp_op) {
      cp_status = db->Checkpoint("/backup");
      cp_taken = true;
    }
    if (op == gc_op) {
      Status gs = db->GarbageCollectVlog();
      EXPECT_TRUE(gs.ok() || env.injected_faults() > 0)
          << "iter " << iter << " op " << op << ": " << gs.ToString();
    }
    WriteBatch batch;
    std::vector<ModelOp> ops;
    const int muts = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < muts; ++m) {
      ModelOp mop;
      char key[8];
      std::snprintf(key, sizeof(key), "key%02d",
                    static_cast<int>(rng.Uniform(40)));
      mop.key = key;
      const uint64_t pick = rng.Uniform(10);
      if (pick < 6) {
        mop.kind = ModelOp::kPut;
        mop.value = "v" + std::to_string(op) + "-" + std::to_string(m);
        if (rng.OneIn(8)) {
          mop.value.append(150, 'x');  // Fat values force flush churn.
        }
        batch.Put(mop.key, mop.value);
      } else if (pick < 8) {
        mop.kind = ModelOp::kDelete;
        batch.Delete(mop.key);
      } else {
        mop.kind = ModelOp::kMerge;
        mop.value = "m" + std::to_string(op);
        batch.Merge(mop.key, mop.value);
      }
      ops.push_back(std::move(mop));
    }
    batch.Put("!counter", CounterValue(op));

    // The counter lands in shard 0, so the batch spans shards iff one of
    // its keys lands past the first split.
    const bool spans_shards =
        options.num_shards > 1 &&
        std::any_of(ops.begin(), ops.end(), [&](const ModelOp& mop) {
          return mop.key >= options.shard_split_keys.front();
        });

    WriteOptions wo;
    wo.sync = rng.OneIn(4);
    Status s = db->Write(wo, &batch);
    ASSERT_TRUE(s.ok()) << "iter " << iter << " op " << op << ": "
                        << s.ToString();
    history.push_back(std::move(ops));
    if (wo.sync || spans_shards) {
      durable = op;
    }
    if (rng.OneIn(40)) {
      // An explicit flush now and then varies where sealed memtables and
      // L0 files sit relative to the crash point.
      ASSERT_TRUE(db->Flush().ok()) << "iter " << iter << " op " << op;
    }
  }

  if (checkpoint_axis && !cp_taken) {
    // cp_op == crash_point: the backup covers the whole surviving prefix.
    cp_status = db->Checkpoint("/backup");
    cp_taken = true;
  }

  // Crash: freeze the filesystem mid-flight (background flushes and
  // compactions may be running), tear down the DB, then lose everything
  // unsynced — sometimes with a torn tail.
  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData(/*torn_tail_one_in=*/2).ok())
      << "iter " << iter;
  env.SetFilesystemActive(true);
  env.ClearRules();

  ASSERT_TRUE(DB::Open(options, "/crash", &db).ok())
      << "iter " << iter << " (reopen after crash at op " << crash_point
      << ", durable " << durable << ")";

  // Recover the prefix length from the counter key.
  std::string counter;
  Status cs = db->Get(ReadOptions(), "!counter", &counter);
  int recovered = -1;
  if (cs.ok()) {
    recovered = std::atoi(counter.c_str());
  } else {
    ASSERT_TRUE(cs.IsNotFound()) << "iter " << iter << ": " << cs.ToString();
  }
  // No acked-synced write may be lost, and nothing from the future may
  // appear.
  EXPECT_GE(recovered, durable)
      << "iter " << iter << ": lost synced write (crash at " << crash_point
      << ")";
  EXPECT_LT(recovered, crash_point) << "iter " << iter;

  // Replay the model to the recovered prefix and verify every key.
  std::map<std::string, std::string> model;
  for (int op = 0; op <= recovered; ++op) {
    for (const auto& mop : history[static_cast<size_t>(op)]) {
      ApplyToModel(&model, mop);
    }
  }
  std::string value;
  for (int k = 0; k < 40; ++k) {
    char key[8];
    std::snprintf(key, sizeof(key), "key%02d", k);
    Status gs = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(gs.IsNotFound())
          << "iter " << iter << " key " << key << ": expected NOT_FOUND, got "
          << (gs.ok() ? value : gs.ToString());
    } else {
      ASSERT_TRUE(gs.ok()) << "iter " << iter << " key " << key << ": "
                           << gs.ToString();
      EXPECT_EQ(it->second, value) << "iter " << iter << " key " << key;
    }
  }
  // The same sample through batched MultiGet: recovery must look identical
  // through the Env::MultiRead path (the recovered tables are read in
  // batches instead of one pread per block).
  std::vector<std::string> key_storage;
  for (int k = 0; k < 40; ++k) {
    char key[8];
    std::snprintf(key, sizeof(key), "key%02d", k);
    key_storage.push_back(key);
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses = db->MultiGet(ReadOptions(), keys, &values);
  for (size_t k = 0; k < keys.size(); ++k) {
    auto it = model.find(key_storage[k]);
    if (it == model.end()) {
      EXPECT_TRUE(statuses[k].IsNotFound())
          << "iter " << iter << " MultiGet key " << key_storage[k];
    } else {
      ASSERT_TRUE(statuses[k].ok()) << "iter " << iter << " MultiGet key "
                                    << key_storage[k] << ": "
                                    << statuses[k].ToString();
      EXPECT_EQ(it->second, values[k])
          << "iter " << iter << " MultiGet key " << key_storage[k];
    }
  }

  // Scans see the same prefix: a full scan, and one from the middle of the
  // key space (it crosses the shard split at N > 1). Beside the model's
  // keys the tree holds only the counter put.
  std::map<std::string, std::string> expected = model;
  if (recovered >= 0) {
    expected["!counter"] = CounterValue(recovered);
  }
  auto scan = [&](const char* start) {
    std::map<std::string, std::string> seen;
    auto it = db->NewIterator(ReadOptions());
    if (start == nullptr) {
      it->SeekToFirst();
    } else {
      it->Seek(start);
    }
    for (; it->Valid(); it->Next()) {
      seen[it->key().ToString()] = it->value().ToString();
    }
    EXPECT_TRUE(it->status().ok())
        << "iter " << iter << " scan: " << it->status().ToString();
    return seen;
  };
  EXPECT_EQ(expected, scan(nullptr)) << "iter " << iter << ": full scan";
  const std::map<std::string, std::string> from_key20(
      expected.lower_bound("key20"), expected.end());
  EXPECT_EQ(from_key20, scan("key20")) << "iter " << iter << ": scan from key20";

  Status vs = db->ValidateTreeInvariants();
  EXPECT_TRUE(vs.ok()) << "iter " << iter << ": " << vs.ToString();

  // Checkpoint axis: the backup was taken before the crash and its files
  // were hard-linked from live state, so the crash (DropUnsyncedData) just
  // ran over it too. A completed checkpoint must restore to exactly the
  // pre-cut prefix; a failed one must be rejected outright.
  if (checkpoint_axis && cp_taken) {
    if (cp_status.ok()) {
      ASSERT_TRUE(DB::Restore(options, "/backup", "/restore").ok())
          << "iter " << iter;
      std::unique_ptr<DB> rdb;
      ASSERT_TRUE(DB::Open(options, "/restore", &rdb).ok())
          << "iter " << iter << " (restore of checkpoint at op " << cp_op
          << ")";
      std::string rcounter;
      Status rcs = rdb->Get(ReadOptions(), "!counter", &rcounter);
      int rrecovered = -1;
      if (rcs.ok()) {
        rrecovered = std::atoi(rcounter.c_str());
      } else {
        ASSERT_TRUE(rcs.IsNotFound()) << "iter " << iter;
      }
      // Exact, not merely prefix-consistent: the checkpoint sealed and
      // fsynced the WAL, so every op before the cut is durable in it.
      EXPECT_EQ(cp_op - 1, rrecovered)
          << "iter " << iter << ": checkpoint must hold exactly ops [0.."
          << cp_op - 1 << "]";
      std::map<std::string, std::string> cp_model;
      for (int op = 0; op < cp_op; ++op) {
        for (const auto& mop : history[static_cast<size_t>(op)]) {
          ApplyToModel(&cp_model, mop);
        }
      }
      std::string rvalue;
      for (int k = 0; k < 40; ++k) {
        char key[8];
        std::snprintf(key, sizeof(key), "key%02d", k);
        Status rgs = rdb->Get(ReadOptions(), key, &rvalue);
        auto it = cp_model.find(key);
        if (it == cp_model.end()) {
          EXPECT_TRUE(rgs.IsNotFound())
              << "iter " << iter << " restore key " << key;
        } else {
          ASSERT_TRUE(rgs.ok()) << "iter " << iter << " restore key " << key
                                << ": " << rgs.ToString();
          EXPECT_EQ(it->second, rvalue)
              << "iter " << iter << " restore key " << key;
        }
      }
      EXPECT_TRUE(rdb->ValidateTreeInvariants().ok()) << "iter " << iter;
    } else {
      // An interrupted checkpoint never restores and never opens.
      EXPECT_FALSE(DB::Restore(options, "/backup", "/restore").ok())
          << "iter " << iter;
      if (env.FileExists(CheckpointInProgressFileName("/backup"))) {
        std::unique_ptr<DB> rdb;
        EXPECT_FALSE(DB::Open(options, "/backup", &rdb).ok())
            << "iter " << iter
            << ": partial checkpoint must not open as a DB";
      }
    }
  }
}

TEST(CrashHarness, RandomizedCrashReopenCycles) {
  std::printf("crash harness: seed=%llu iters=%d (reproduce with "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(g_seed), g_iters,
              static_cast<unsigned long long>(g_seed));
  for (int iter = g_start; iter < g_start + g_iters; ++iter) {
    RunIteration(g_seed, iter);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Acceptance demo for the retry/backoff path: a transient flush failure
// (two failed table syncs, then the device heals) recovers automatically —
// Flush() returns OK, stats show the soft error and the successful retry,
// and the DB was never reopened or Resume()d.
TEST(CrashHarness, TransientFlushFailureRecoversWithoutReopen) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/7);
  Options options;
  options.env = &env;
  options.write_buffer_size = 4 << 10;
  options.background_error_retry_initial_micros = 200;
  options.background_error_retry_max_micros = 2000;
  options.merge_operator = NewStringAppendOperator(',');

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/soft", &db).ok());

  FaultRule rule;
  rule.file_kinds = kFaultTable;
  rule.ops = kFaultOpSync;
  rule.one_in = 1;
  rule.max_failures = 2;
  env.AddRule(rule);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(i),
                        std::string(64, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());  // Heals through retries; no reopen.

  EXPECT_GE(env.injected_faults(), 1u);
  const Statistics* stats = db->statistics();
  EXPECT_GE(stats->bg_error_soft.load(), 1u);
  EXPECT_GE(stats->bg_retries.load(), 1u);
  EXPECT_GE(stats->bg_retry_success.load(), 1u);
  EXPECT_EQ(0u, stats->bg_error_hard.load());
  EXPECT_TRUE(db->BackgroundErrorState().ok());

  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
  }
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());
}

// --- Cross-shard commit atomicity (DESIGN.md, "Sharding architecture").
// Scripted crash points around the commit record: before it (slices
// synced, commit append fails), after it (commit synced, memtable applies
// lost), a torn commit record, and one cut short after its header. A
// cross-shard batch must recover all-or-nothing in every case.

Options ShardedCrashOptions(FaultInjectionEnv* env) {
  Options options;
  options.env = env;
  options.num_shards = 4;
  options.shard_split_keys = {"key10", "key20", "key30"};
  return options;
}

// One key per shard, written as a single atomic batch.
WriteBatch CrossShardBatch(const std::string& value) {
  WriteBatch batch;
  batch.Put("key05", value);
  batch.Put("key15", value);
  batch.Put("key25", value);
  batch.Put("key35", value);
  return batch;
}

void ExpectAllOrNothing(DB* db, const std::string& value, bool present) {
  for (const char* key : {"key05", "key15", "key25", "key35"}) {
    std::string got;
    Status s = db->Get(ReadOptions(), key, &got);
    if (present) {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(value, got) << key;
    } else {
      EXPECT_TRUE(s.IsNotFound())
          << key << ": expected NOT_FOUND, got "
          << (s.ok() ? got : s.ToString());
    }
  }
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());
}

// Crash between the slices and the commit record: every shard holds a
// synced slice, but the commit record never reaches the commit log. After
// reopen the batch must be absent from every shard (slices without a
// commit record are skipped), while earlier committed writes survive.
TEST(CrashHarness, CrossShardCrashBeforeCommitRecordAborts) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/11);
  Options options = ShardedCrashOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/2pc", &db).ok());
  WriteBatch keep = CrossShardBatch("committed");
  ASSERT_TRUE(db->Write(WriteOptions(), &keep).ok());

  FaultRule rule;
  rule.file_kinds = kFaultCommitLog;
  rule.ops = kFaultOpAppend;
  rule.one_in = 1;
  env.AddRule(rule);

  WriteBatch doomed;
  doomed.Put("key05", "doomed");
  doomed.Put("key15", "doomed");
  doomed.Put("key25", "doomed");
  doomed.Put("key35", "doomed");
  Status ws = db->Write(WriteOptions(), &doomed);
  ASSERT_FALSE(ws.ok()) << "commit-log append fault must fail the write";
  EXPECT_EQ(8u, db->statistics()->shard_prepares.load());
  EXPECT_EQ(4u, db->statistics()->shard_commits.load());

  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);
  env.ClearRules();

  ASSERT_TRUE(DB::Open(options, "/2pc", &db).ok());
  ExpectAllOrNothing(db.get(), "committed", /*present=*/true);
  std::string got;
  EXPECT_TRUE(db->Get(ReadOptions(), "key05", &got).ok());
  EXPECT_EQ("committed", got) << "aborted batch must not clobber old value";
}

// Crash after the commit record: the write was acknowledged, and every
// memtable apply is lost. Reopen must replay the batch into every shard
// from the synced slices plus the commit-log record.
TEST(CrashHarness, CrossShardCrashAfterCommitRecordReplays) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/12);
  Options options = ShardedCrashOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/2pc-commit", &db).ok());
  WriteBatch batch = CrossShardBatch("acked");
  WriteOptions wo;
  wo.sync = false;  // A cross-shard commit is durable regardless.
  ASSERT_TRUE(db->Write(wo, &batch).ok());

  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(options, "/2pc-commit", &db).ok());
  ExpectAllOrNothing(db.get(), "acked", /*present=*/true);

  // And the replayed state survives a further clean reopen (the recovered
  // batch re-enters each shard's WAL with fresh sequence numbers).
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/2pc-commit", &db).ok());
  ExpectAllOrNothing(db.get(), "acked", /*present=*/true);
}

// Torn commit record: the commit-log sync fails (outcome reported as
// indeterminate) and the crash leaves a corrupted prefix of the record on
// disk. Recovery must treat the torn record as absent and drop the batch
// from every shard.
TEST(CrashHarness, CrossShardTornCommitRecordAborts) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/13);
  Options options = ShardedCrashOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/2pc-torn", &db).ok());
  WriteBatch keep = CrossShardBatch("committed");
  ASSERT_TRUE(db->Write(WriteOptions(), &keep).ok());

  FaultRule rule;
  rule.file_kinds = kFaultCommitLog;
  rule.ops = kFaultOpSync;
  rule.one_in = 1;
  env.AddRule(rule);

  WriteBatch doomed = CrossShardBatch("doomed");
  Status ws = db->Write(WriteOptions(), &doomed);
  ASSERT_FALSE(ws.ok()) << "commit-log sync fault must fail the write";

  env.SetFilesystemActive(false);
  db.reset();
  // torn_tail_one_in=1: every file that lost unsynced bytes keeps a
  // corrupted prefix of them — including the unsynced commit record.
  ASSERT_TRUE(env.DropUnsyncedData(/*torn_tail_one_in=*/1).ok());
  env.SetFilesystemActive(true);
  env.ClearRules();

  ASSERT_TRUE(DB::Open(options, "/2pc-torn", &db).ok());
  ExpectAllOrNothing(db.get(), "committed", /*present=*/true);
}

// A commit record cut short after its header leaves the commit log's end
// unknown: a record appended behind the stub is lost to the reader with the
// rest of its block, so an acknowledged batch would vanish in a crash. The
// failure therefore closes the commit log and leaves the involved shards
// in a hard error that only a reopen clears; the reopen settles the failed
// batch everywhere and loses nothing that was acknowledged.
TEST(CrashHarness, CrossShardCommitRecordCutShortFailsUntilReopen) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/14);
  Options options = ShardedCrashOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/2pc-cut", &db).ok());
  WriteBatch keep = CrossShardBatch("committed");
  ASSERT_TRUE(db->Write(WriteOptions(), &keep).ok());

  // The next commit record's header reaches the log, its payload does not.
  FaultRule rule;
  rule.file_kinds = kFaultCommitLog;
  rule.ops = kFaultOpAppend;
  rule.at_op_index = 1;
  env.AddRule(rule);
  WriteBatch doomed;  // Shards 0 and 1 only.
  doomed.Put("key05", "doomed");
  doomed.Put("key15", "doomed");
  ASSERT_FALSE(db->Write(WriteOptions(), &doomed).ok());
  EXPECT_EQ(1u, env.injected_faults());
  env.ClearRules();

  // Every later cross-shard batch fails: the commit log is closed.
  std::string acked = "committed";  // The last batch acknowledged.
  for (int i = 0; i < 5; ++i) {
    const std::string value = "later" + std::to_string(i);
    WriteBatch later = CrossShardBatch(value);
    if (db->Write(WriteOptions(), &later).ok()) {
      acked = value;
    }
  }
  EXPECT_EQ("committed", acked) << "a batch committed behind the stub";
  // The involved shards take no write, before or after a Resume().
  EXPECT_FALSE(db->Put(WriteOptions(), "key05", "single").ok());
  EXPECT_FALSE(db->Resume().ok());
  EXPECT_FALSE(db->Put(WriteOptions(), "key15", "single").ok());
  // An uninvolved shard does.
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db->Put(synced, "key25", "single").ok());

  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(options, "/2pc-cut", &db).ok());
  std::string got;
  ASSERT_TRUE(db->Get(ReadOptions(), "key25", &got).ok());
  EXPECT_EQ("single", got);
  ASSERT_TRUE(db->Get(ReadOptions(), "key35", &got).ok());
  EXPECT_EQ(acked, got);
  // The failed batch: in both of its shards, or in neither.
  std::string first, second;
  ASSERT_TRUE(db->Get(ReadOptions(), "key05", &first).ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "key15", &second).ok());
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first == "doomed" || first == acked) << first;
  EXPECT_TRUE(db->ValidateTreeInvariants().ok());

  // The reopen starts a fresh commit log.
  WriteBatch again = CrossShardBatch("again");
  ASSERT_TRUE(db->Write(WriteOptions(), &again).ok());
  ExpectAllOrNothing(db.get(), "again", /*present=*/true);
}

// A slice sits in its shard's WAL where the shard applied it, so a write
// that follows it on that shard follows it in the log too: a synced
// single-shard overwrite of one of a cross-shard batch's keys wins after a
// crash.
TEST(CrashHarness, SyncedOverwriteOfACrossShardKeySurvivesACrash) {
  MemEnv base;
  FaultInjectionEnv env(&base, /*seed=*/15);
  Options options = ShardedCrashOptions(&env);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/2pc-order", &db).ok());
  WriteBatch batch = CrossShardBatch("batch");
  ASSERT_TRUE(db->Write(WriteOptions(), &batch).ok());
  WriteOptions synced;
  synced.sync = true;
  ASSERT_TRUE(db->Put(synced, "key15", "overwrite").ok());

  env.SetFilesystemActive(false);
  db.reset();
  ASSERT_TRUE(env.DropUnsyncedData().ok());
  env.SetFilesystemActive(true);

  ASSERT_TRUE(DB::Open(options, "/2pc-order", &db).ok());
  for (const char* key : {"key05", "key15", "key25", "key35"}) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(std::string(key) == "key15" ? "overwrite" : "batch", got)
        << key;
  }
}

}  // namespace
}  // namespace lsmlab

// Custom main: gtest_main cannot parse --seed/--iters, and the CI crash
// harness job wants both pinned.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    unsigned long long seed;
    int iters;
    if (std::sscanf(argv[i], "--seed=%llu", &seed) == 1) {
      lsmlab::g_seed = seed;
    } else if (std::sscanf(argv[i], "--iters=%d", &iters) == 1) {
      lsmlab::g_iters = iters;
    } else if (std::sscanf(argv[i], "--start=%d", &iters) == 1) {
      lsmlab::g_start = iters;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
